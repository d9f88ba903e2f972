package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/machine"
	"coopabft/internal/recovery"
	"coopabft/internal/serve"
)

// The traced pass replays a workload's request sequence at concurrency 1
// through seven nested entry points, innermost first. Each level contains
// the one before it, so for one request a level's time minus the level below
// is the outer layer's self time, and the seven self times telescope to the
// request's concurrency-1 end-to-end latency.
const (
	lvMat         = iota // bare mat kernel
	lvABFT               // abft constructor + Run on abft.Standalone() (or abft.NewGEMM32)
	lvRecovery           // core.NewRuntime + recovery.New*Workload + Coordinator.Run
	lvServe              // serve.Service.Do
	lvServeHTTP          // HTTP POST to a worker
	lvCluster            // cluster.Gateway.Do
	lvClusterHTTP        // HTTP POST to the gateway
	numLevels
)

var levelSpan = [numLevels]struct{ layer, name string }{
	{"mat", "mat.bare"},
	{"abft", "abft.standalone"},
	{"recovery", "recovery.coordinator"},
	{"serve", "serve.Service.Do"},
	{"serve", "serve.http"},
	{"cluster", "cluster.Gateway.Do"},
	{"cluster", "cluster.http"},
}

// span is one timed call into a layer. The seven level spans of a request
// form a causal chain (the gateway POST causes Gateway.Do causes the worker
// POST, and so on down to the kernel); they are measured by separate
// replays of the same request, so their intervals do not nest in time.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for the request's outermost span
	Req      uint64 `json:"req"`    // request seed
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer started
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the untraced comparison replay runs.
type tracer struct {
	t0    time.Time
	spans []span
}

// newTracer reserves room for a full suite's spans up front, so recording
// one never reallocates (and evicts the caches of) the request timed next.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// alloc reserves n consecutive span IDs.
func (tr *tracer) alloc(n int) int {
	if tr == nil {
		return 0
	}
	id := len(tr.spans) + 1
	for i := 0; i < n; i++ {
		tr.spans = append(tr.spans, span{})
	}
	return id
}

func (tr *tracer) record(id, parent int, w *workload, req uint64, layer, name string, start time.Time, d time.Duration) {
	if tr == nil {
		return
	}
	s := start.Sub(tr.t0).Nanoseconds()
	tr.spans[id-1] = span{ID: id, Parent: parent, Req: req, Workload: w.name,
		Layer: layer, Name: name, StartNS: s, EndNS: s + d.Nanoseconds()}
}

// sample is everything the traced pass measures for one request.
type sample struct {
	lv [numLevels]time.Duration

	encode, abftRun time.Duration // lvABFT split: constructor, Run
	build, ladder   time.Duration // lvRecovery split: runtime+workload, Coordinator.Run
	parse, sig      time.Duration

	flops, bytes float64
	opsShare     float64 // abft (Checksum+Verify)/Total operations; f64 only

	checkpoints, stepsLost int
	notified               uint64
	simInstr, simLLCMiss   uint64

	reqBytes, respBytes int
}

// abftRun is one fault-free ABFT kernel run outside any runtime.
type abftResult struct {
	encode, run time.Duration
	start       time.Time
	answer      [][]float64 // nil for f32: its answer is not float64 bits
	ops         abft.OpCounters
}

func rows(m interface{ Row(int) []float64 }, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// runABFT builds and runs the request's ABFT kernel the way the serving
// path configures it (recovery.New*Workload's mode, block and tolerance
// settings), on abft.Standalone(): no simulator, no ladder.
func runABFT(p serve.Parsed) (abftResult, error) {
	var res abftResult
	res.start = time.Now()
	var run func() error
	switch {
	case p.Dtype == serve.DtypeF32:
		g, err := abft.NewGEMM32(p.N, p.Seed)
		if err != nil {
			return res, err
		}
		run = g.Run
	case p.Kernel == serve.KernelGEMM:
		d, err := abft.NewDGEMM(abft.Standalone(), p.N, p.Seed)
		if err != nil {
			return res, err
		}
		d.Mode, d.Block = p.Mode, 16
		run = func() error {
			err := d.Run()
			res.answer, res.ops = rows(d.C(), d.N), d.Ops
			return err
		}
	case p.Kernel == serve.KernelCholesky:
		c := abft.NewCholesky(abft.Standalone(), p.N, p.Seed)
		c.Mode = abft.NotifiedVerify
		run = func() error {
			err := c.Run()
			res.answer, res.ops = rows(c.L(), c.N), c.Ops
			return err
		}
	default:
		c := abft.NewCG(abft.Standalone(), p.NX, p.NY, p.Seed)
		c.Mode, c.RelTol = abft.NotifiedVerify, 1e-9
		run = func() error {
			out, err := c.Run()
			if err == nil && !out.Converged {
				err = fmt.Errorf("cg did not converge (residual %g)", out.Residual)
			}
			res.answer, res.ops = [][]float64{c.X()}, c.Ops
			return err
		}
	}
	res.encode = time.Since(res.start)
	t := time.Now()
	err := run()
	res.run = time.Since(t)
	return res, err
}

// injectionPlan is serve's per-request fault schedule, restated: the ladder
// level must see the faults the service would inject for the same seed, or
// recovery's share of a faulted request would be charged to serve.
func injectionPlan(p serve.Parsed, w recovery.Workload) []recovery.Injection {
	targets, steps := w.InjectTargets(), w.Steps()
	st := p.Seed
	next := func() uint64 { st++; return campaign.Splitmix64(st) }
	plan := make([]recovery.Injection, 0, p.Faults)
	for e := 0; e < p.Faults; e++ {
		ti := int(next() % uint64(len(targets)))
		plan = append(plan, recovery.Injection{
			Tick:   int(next() % uint64(steps)),
			Kind:   p.Kind,
			Target: ti,
			Elem:   int(next() % uint64(len(targets[ti].T.Data))),
		})
	}
	return plan
}

// ladderResult is one run through the recovery ladder on a fresh simulated
// node, as serve.execute does it.
type ladderResult struct {
	build, run time.Duration
	start      time.Time
	rep        recovery.Report
	sim        machine.Result
}

func runLadder(p serve.Parsed) (ladderResult, error) {
	var res ladderResult
	res.start = time.Now()
	rt := core.NewRuntime(machine.ScaledConfig(32), p.Strategy, int64(p.Seed))
	var w recovery.Workload
	var err error
	switch p.Kernel {
	case serve.KernelCholesky:
		w, err = recovery.NewCholeskyWorkload(rt, p.N, p.Seed)
	case serve.KernelCG:
		w, err = recovery.NewCGWorkload(rt, p.NX, p.NY, p.Seed)
	default:
		w, err = recovery.NewDGEMMWorkload(rt, p.N, p.Seed, p.Mode)
	}
	if err != nil {
		return res, err
	}
	co := &recovery.Coordinator{RT: rt, W: w, Plan: injectionPlan(p, w)}
	res.build = time.Since(res.start)
	t := time.Now()
	res.rep = co.Run()
	res.run = time.Since(t)
	res.sim = rt.Finish()
	if res.rep.Outcome == recovery.Aborted {
		return res, fmt.Errorf("ladder aborted: %v", res.rep.Err)
	}
	return res, nil
}

// pass is one traced replay of a workload.
type pass struct {
	w       *workload
	byKind  map[int][]sample
	tally   tally   // the wire levels' replies, for the correctness verdict
	errs    []error // inner levels that failed on a clean request
	replays int
}

// fold adds the pass's replies to all, counts each request an inner level
// could not finish as attempted and failed, and returns those as messages.
func (ps *pass) fold(all *tally) []string {
	all.add(ps.tally)
	notes := make([]string, len(ps.errs))
	for i, e := range ps.errs {
		all.sent++
		all.failed++
		notes[i] = e.Error()
	}
	return notes
}

// timed runs f and returns when it started and how long it took.
func timed(f func()) (time.Time, time.Duration) {
	t := time.Now()
	f()
	return t, time.Since(t)
}

// traceRequest runs one request through all seven levels.
func (ps *pass) traceRequest(st *stack, tr *tracer, cl *client, req serve.Request) (sample, error) {
	var s sample
	w := ps.w
	id := tr.alloc(numLevels) // id+lv is level lv's span; its parent is the level above
	mark := func(lv int, start time.Time, d time.Duration) {
		s.lv[lv] = d
		parent := 0
		if lv < lvClusterHTTP {
			parent = id + lv + 1
		}
		tr.record(id+lv, parent, w, req.Seed, levelSpan[lv].layer, levelSpan[lv].name, start, d)
	}
	sub := func(lv int, name string, start time.Time, d time.Duration) {
		tr.record(tr.alloc(1), id+lv, w, req.Seed, levelSpan[lv].layer, name, start, d)
	}

	p, err := serve.ParseRequest(workerLimits, req)
	if err != nil {
		return s, err
	}
	const parses = 64 // one parse is a few hundred ns, near the clock's resolution
	_, d := timed(func() {
		for i := 0; i < parses; i++ {
			_, _ = serve.ParseRequest(workerLimits, req)
		}
	})
	s.parse = d / parses

	b := bare(req, 1)
	s.flops, s.bytes = b.flops, b.bytes
	mark(lvMat, b.start, b.d)

	ar, err := runABFT(p)
	if err != nil {
		return s, fmt.Errorf("abft level: %w", err)
	}
	s.encode, s.abftRun = ar.encode, ar.run
	mark(lvABFT, ar.start, ar.encode+ar.run)
	sub(lvABFT, "abft.encode", ar.start, ar.encode)
	sub(lvABFT, "abft.run", ar.start.Add(ar.encode), ar.run)
	if total := ar.ops.Total(); total > 0 {
		s.opsShare = float64(ar.ops.Checksum+ar.ops.Verify) / float64(total)
	}
	if ar.answer != nil {
		_, s.sig = timed(func() { _ = abft.AnswerSig(ar.answer...) })
	}

	if p.Dtype == serve.DtypeF32 {
		// f32 runs outside the simulated-memory coordinator: there is no
		// ladder level, so recovery's self time is exactly zero.
		mark(lvRecovery, ar.start, s.lv[lvABFT])
	} else {
		lr, err := runLadder(p)
		if err != nil {
			return s, fmt.Errorf("recovery level: %w", err)
		}
		s.build, s.ladder = lr.build, lr.run
		mark(lvRecovery, lr.start, lr.build+lr.run)
		sub(lvRecovery, "recovery.build", lr.start, lr.build)
		sub(lvRecovery, "recovery.run", lr.start.Add(lr.build), lr.run)
		s.checkpoints, s.stepsLost, s.notified = lr.rep.Checkpoints, lr.rep.StepsLost, lr.rep.Notified
		s.simInstr, s.simLLCMiss = lr.sim.Instructions, lr.sim.LLCMissABFT+lr.sim.LLCMissOther
	}

	// The four wire levels return a Response; each is classified like a
	// timed run's reply.
	ctx := context.Background()
	inproc := func(lv int, do func(context.Context, serve.Request) (serve.Response, error)) {
		var rep reply
		start, d := timed(func() {
			rep.resp, rep.err = do(ctx, req)
		})
		if rep.err == nil {
			rep.status = http.StatusOK
		}
		ps.tally.record(req, classify(req, rep), rep)
		mark(lv, start, d)
	}
	wire := func(lv int, base string) reply {
		var rep reply
		start, d := timed(func() { rep = cl.post(base, req) })
		ps.tally.record(req, classify(req, rep), rep)
		mark(lv, start, d)
		return rep
	}
	inproc(lvServe, st.svcs[0].Do)
	wire(lvServeHTTP, st.nodeURL[0])
	inproc(lvCluster, st.gw.Do)
	rep := wire(lvClusterHTTP, st.gwURL)
	s.reqBytes, s.respBytes = rep.reqBytes, rep.respBytes
	return s, nil
}

// tracedPass replays the first limit requests of client 0's sequence (whole
// mix cycles, at least one) or as many as fit in budget.
func tracedPass(st *stack, tr *tracer, w *workload, seed uint64, limit int, budget time.Duration) *pass {
	ps := &pass{w: w, byKind: make(map[int][]sample)}
	cl := newClient()
	defer cl.close()
	start := time.Now()
	for i := 0; i < limit; i++ {
		if i >= len(w.cycle) && i%len(w.cycle) == 0 && time.Since(start) > budget {
			break
		}
		k, req := w.request(seed, 0, i, clients)
		s, err := ps.traceRequest(st, tr, cl, req)
		if err != nil {
			ps.errs = append(ps.errs, fmt.Errorf("%s request %d (%s): %w", w.name, i, w.kinds[k].name, err))
			continue
		}
		ps.byKind[k] = append(ps.byKind[k], s)
		ps.replays++
	}
	return ps
}

// mix returns the mix-weighted mean over kinds of each kind's median of
// get: the expected per-request value for the workload's traffic. A pooled
// median would sit on whichever kind happens to straddle the middle of a
// multi-modal mix.
func (ps *pass) mix(get func(*sample) float64) float64 {
	total, weight := 0.0, 0.0
	for k := range ps.w.kinds { // in kind order: the sum must not depend on map order
		ss := ps.byKind[k]
		if len(ss) == 0 {
			continue
		}
		vals := make([]float64, len(ss))
		for i := range ss {
			vals[i] = get(&ss[i])
		}
		total += ps.w.weight(k) * median(vals)
		weight += ps.w.weight(k)
	}
	return total / weight
}

func (ps *pass) level(lv int) float64 {
	return ps.mix(func(s *sample) float64 { return ms(s.lv[lv]) })
}

// traceOverhead replays gateway POSTs with and without span recording and
// returns the relative difference in percent.
func traceOverhead(st *stack, tr *tracer, w *workload, seed uint64, n int) float64 {
	cl := newClient()
	defer cl.close()
	on := &pass{w: w, byKind: make(map[int][]sample)}
	off := &pass{w: w, byKind: make(map[int][]sample)}
	one := func(ps *pass, tr *tracer, k int, req serve.Request) {
		var s sample
		id := tr.alloc(1)
		start, d := timed(func() { cl.post(st.gwURL, req) })
		tr.record(id, 0, w, req.Seed, "bench", "bench.trace_probe", start, d)
		s.lv[lvClusterHTTP] = d
		ps.byKind[k] = append(ps.byKind[k], s)
	}
	for i := 0; i < n; i++ {
		k, req := w.request(seed, 0, i, clients)
		if i%2 == 0 { // alternate which side runs first
			one(on, tr, k, req)
			one(off, nil, k, req)
		} else {
			one(off, nil, k, req)
			one(on, tr, k, req)
		}
	}
	a, b := on.level(lvClusterHTTP), off.level(lvClusterHTTP)
	return (a - b) / b * 100
}
