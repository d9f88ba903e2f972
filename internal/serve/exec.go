package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/machine"
	"coopabft/internal/mat"
	"coopabft/internal/recovery"
)

// execute runs one admitted request through the recovery ladder and
// classifies it. Every f64 request runs on a functional node of its own,
// configured for its own ECC strategy — the per-request malloc_ecc decision
// — so concurrent requests share no machine state. As in the paper, where
// malloc_ecc programs region registers on hardware that outlives every
// kernel, the node is not built per request: the service keeps them on a
// free list that survives garbage collection (mat.FreeList, bounded at one
// node per executor slot and one for the long-task route), and a request
// takes one and resets it (core.Runtime.Reset: the constructor run over the
// storage the node has grown), or builds one when the list is empty. The
// node keeps what decides an outcome (OS, ECC region registers, fault table
// and codecs, and the cache hierarchy as the filter between a kernel's
// reads and DRAM) and none of the paper platform's cycle and energy
// accounting; its hierarchy does no work until an injection is
// delivered, so a fault-free request pays the kernels' Touch calls as one
// branch each. DESIGN.md §4.2 has the argument for why outcomes are
// exactly the timed platform's, fresh node or recycled.
func (s *Service) execute(j *job, batchSize int, wait time.Duration) Response {
	s.m.Running.Add(1)
	defer s.m.Running.Add(-1)

	start := time.Now()
	var rep recovery.Report
	var w recovery.Workload
	var nd *node
	var g32 *abft.GEMM32
	// The arena owns every n- and n²-sized buffer of the request, whatever
	// its element type: operands, checkpoint shadows, oracle temporaries, the
	// answer views w hands out; the node holds the machine model w's regions
	// are mapped in, and g32 is the f32 kernel object. One lifetime rule for
	// all three: they go back to their free lists below, once the response
	// holds copies of whatever it reports, and never after the ladder's panic
	// guard fired. The guard has emptied the arena and dropped the node or
	// the kernel: nothing vouches for who still writes to them, so they are
	// left to the GC.
	arena := new(mat.Arena)
	if j.req.Dtype == DtypeF32 {
		rep, g32 = s.runLadder32(j, arena)
	} else {
		rep, w, nd = s.runLadder(j, arena)
	}
	run := time.Since(start)

	resp := Response{
		Kernel:       j.req.Kernel.String(),
		N:            j.req.Size(),
		Strategy:     j.req.Strategy.String(),
		VerifyMode:   j.req.Mode.String(),
		Tenant:       j.req.Tenant,
		Outcome:      rep.Outcome.String(),
		Injected:     rep.Injected,
		HWCorrected:  int(rep.HWCorrected),
		Corrections:  rep.Corrections,
		Degradations: rep.Degradations,
		Restarts:     rep.Restarts,
		BatchSize:    batchSize,
		QueueMS:      float64(wait) / float64(time.Millisecond),
		RunMS:        float64(run) / float64(time.Millisecond),
	}
	if j.req.Dtype == DtypeF32 {
		resp.Dtype = j.req.Dtype.String()
	}
	if rep.Err != nil {
		resp.Error = rep.Err.Error()
	}
	s.stampIntegrity(&resp, j.req, rep, w, nd)
	arena.Release()
	if nd != nil {
		s.putNode(nd)
	}
	if g32 != nil {
		s.gemm32s.Put(g32, 1)
	}

	s.countOutcome(rep.Outcome)
	s.m.Tenant(j.req.Tenant).Completed.Add(1)
	s.m.InjectedFaults.Add(int64(rep.Injected))
	s.m.ABFTCorrections.Add(int64(rep.Corrections))
	s.m.Restarts.Add(int64(rep.Restarts))
	s.m.QueueMSSum.Add(resp.QueueMS)
	s.m.RunMSSum.Add(resp.RunMS)
	return resp
}

// runLadder takes a node, builds workload + injection plan on it and drives
// the coordinator under a panic guard: a kernel panic becomes an Aborted
// classification, never a crashed worker. The workload is returned
// alongside the report so the integrity tier can fingerprint its answer
// state; it is nil when construction failed or the kernel panicked. All of
// the run's float64 storage comes from arena and its machine model is node;
// the caller returns both to their free lists (and finds the arena empty and
// the node nil after a panic).
func (s *Service) runLadder(j *job, arena *mat.Arena) (rep recovery.Report, w recovery.Workload, nd *node) {
	defer func() {
		if p := recover(); p != nil {
			rep = recovery.Report{Outcome: recovery.Aborted,
				Err: fmt.Errorf("serve: kernel panicked: %v", p)}
			w = nil
			// After an unwind nothing vouches for who still writes to the
			// request's buffers or what state its node stopped in: forget
			// both, so the caller recycles nothing and they fall to the GC.
			*arena = mat.Arena{}
			nd = nil
		}
	}()

	p := j.req
	nd = s.takeNode(p.Strategy, p.Seed)
	rt := nd.rt
	rt.Arena = arena
	w, err := p.Kernel.row().build(rt, p)
	if err != nil {
		return recovery.Report{Outcome: recovery.Aborted, Err: err}, nil, nd
	}

	rep = nd.co.Reuse(recovery.Coordinator{
		RT:          rt,
		W:           w,
		Plan:        recovery.PlanInjections(w, p.Seed, p.Kind, p.Faults),
		MaxRestarts: maxRestarts,
		Ctx:         j.ctx,
	}).Run()
	s.countArmed(rt)
	return rep, w, nd
}

// node is one recycled functional node and the coordinator that drives the
// ladder on it. Both are kept across requests with what they build: the
// runtime its Env, allocation records and kernel objects (core.Runtime.Reset),
// the coordinator its checkpointer and step hook (recovery.Coordinator.Reuse).
// rows is the list stampIntegrity views an answer's chunks through, emptied
// after each use.
type node struct {
	rt   *core.Runtime
	co   recovery.Coordinator
	rows [][]float64
}

// takeNode returns a functional node configured for strategy and seed: one
// from the free list, reset, or a new one when the list is empty. Every
// node is built with the same machine.Config, which is what lets a recycled
// one serve any request. The caller puts it back with putNode once nothing
// reads it, and never after a panic guard fired.
func (s *Service) takeNode(strategy core.Strategy, seed uint64) *node {
	nd, ok := s.nodes.Get()
	if !ok {
		return &node{rt: core.NewFunctionalRuntime(machine.ScaledConfig(32), strategy, int64(seed))}
	}
	nd.rt.Reset(strategy, int64(seed))
	return nd
}

// putNode returns nd to the free list. Its coordinator lets go of the run's
// workload, context and observers first, so an idle node holds none of them.
func (s *Service) putNode(nd *node) {
	nd.co.Reuse(recovery.Coordinator{})
	s.nodes.Put(nd, 1)
}

// countOutcome adds one finished run, request or long task, to the
// corrected/restarted/aborted tally.
func (s *Service) countOutcome(o recovery.Outcome) {
	switch o {
	case recovery.Corrected:
		s.m.Corrected.Add(1)
	case recovery.Restarted:
		s.m.Restarted.Add(1)
	default:
		s.m.Aborted.Add(1)
	}
}

// countArmed records a finished run whose hierarchy left dormancy.
func (s *Service) countArmed(rt *core.Runtime) {
	if rt.M.Arms() > 0 {
		s.m.SimArmed.Add(1)
	}
}

// stampIntegrity attaches the canonical answer signature (and, for
// verify-vote, the packed answer itself) to a non-aborted response of an
// integrity-tier request. Requests with integrity=none skip all of this —
// the hot path computes no signatures. The Byzantine lie fixture lives
// here: a lying node corrupts the copy it fingerprints, so the wire
// response is well-formed and internally consistent (signature matches the
// shipped answer) but wrong — exactly the adversary replica voting exists
// to out-vote. w is nd's workload; the chunks are viewed through nd's row
// list.
func (s *Service) stampIntegrity(resp *Response, p Parsed, rep recovery.Report, w recovery.Workload, nd *node) {
	if p.Integrity == IntegrityNone || rep.Outcome == recovery.Aborted {
		return
	}
	aw, ok := w.(recovery.Answerer)
	if !ok {
		// Structurally unreachable: every served kernel implements
		// Answerer. Deliver as aborted rather than as an unsigned answer.
		resp.Outcome = recovery.Aborted.String()
		resp.Error = fmt.Sprintf("serve: %s workload exposes no answer data for integrity %s", p.Kernel, p.Integrity)
		return
	}
	rows := aw.AppendAnswer(nd.rows[:0])
	chunks := rows
	if s.lies(p.Seed) {
		chunks = corruptAnswer(chunks, s.cfg.LieSeed, p.Seed)
		s.m.ByzantineLies.Add(1)
	}
	resp.Integrity = p.Integrity.String()
	resp.AnswerSig = abft.AnswerSig(chunks...)
	if p.Integrity == IntegrityVerifyVote {
		// Ship the claimed product so verifier nodes can replicate the
		// O(n²) check against these exact bytes (gemm-only by admission).
		resp.Answer = packChunks(chunks)
	}
	clear(rows) // an idle node views none of the request's storage
	nd.rows = rows[:0]
}

// lies draws the Byzantine lottery for one request: a pure function of
// (LieSeed, request seed), so a lying node lies identically on replay and
// distinct requests draw independently.
func (s *Service) lies(seed uint64) bool {
	if s.cfg.LieFraction <= 0 {
		return false
	}
	draw := campaign.Splitmix64(s.cfg.LieSeed ^ seed ^ 0x9e3779b97f4a7c15)
	return float64(draw)/float64(^uint64(0)) < s.cfg.LieFraction
}

// corruptAnswer deep-copies the answer chunks and lies adaptively: a
// plausible, finite, well-formed wrong answer that every check a worker can
// predict passes. It adds to three entries of the first chunk (a product's
// first row) a perturbation δ in the null space of the only probes a worker
// knows, the ones vector and abft.SeedProbe of the request seed: δ = e × q
// over the entries where q is smallest, largest and nearest their middle,
// so Σδ = 0 and Σ q·δ = 0, and the checksums and the seed-derived projection
// move by rounding only. Each |δ| is at least 1.5 plus an amount derived from
// the node's LieSeed, so independent liars tell different lies: two Byzantine
// nodes only outvote an honest one by actually colluding (same LieSeed),
// never by accident of the fixture. Every served answer's first chunk has at
// least 8 entries.
func corruptAnswer(chunks [][]float64, lieSeed, seed uint64) [][]float64 {
	out := make([][]float64, len(chunks))
	for i, c := range chunks {
		out[i] = append([]float64(nil), c...)
	}
	row := out[0]
	q := abft.SeedProbe(len(row), seed)
	lo, hi := 0, 0
	for j, v := range q {
		if v < q[lo] {
			lo = j
		}
		if v > q[hi] {
			hi = j
		}
	}
	mid := -1
	for j, v := range q {
		if j != lo && j != hi && (mid < 0 || math.Abs(2*v-q[lo]-q[hi]) < math.Abs(2*q[mid]-q[lo]-q[hi])) {
			mid = j
		}
	}
	at := [3]int{lo, mid, hi}
	d := [3]float64{q[hi] - q[mid], q[lo] - q[hi], q[mid] - q[lo]}
	s := (1.5 + float64(campaign.Splitmix64(lieSeed)%4096)) / min(d[0], d[2]) // |d[1]| = d[0] + d[2]
	for k, j := range at {
		row[j] += s * d[k]
	}
	return out
}

// packChunks serializes answer chunks as little-endian IEEE-754 bit
// patterns in chunk order — the same exact-bits encoding abft.PackBlock
// uses, so for an n×n answer the bytes equal PackBlock of the matrix. The
// buffer comes from the answer list; HandleRequest hands it back once the
// reply is written.
func packChunks(chunks [][]float64) Answer {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	out := getAnswer(8 * n)
	off := 0
	for _, c := range chunks {
		for _, v := range c {
			binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
			off += 8
		}
	}
	return out
}
