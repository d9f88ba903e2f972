package cluster

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/cluster/vote"
	"coopabft/internal/mat"
	"coopabft/internal/serve"
)

// This file is the gateway half of the replica-voting integrity tier: the
// scheduling, transport, and bookkeeping around the pure election logic
// in internal/cluster/vote. Two modes, after the FTMR lineage:
//
//   - vote (FRFT-style): R replicas of the whole request on distinct
//     nodes; deliver the ⌈(R+1)/2⌉ answer-signature majority. Catches a
//     node that lies anywhere — ladder, control flow, wire encoding —
//     because the only thing trusted is agreement between independent
//     machines.
//   - verify-vote (DCRFT-style): one primary computes the O(n³) product;
//     the gateway hashes it and projects it onto e and onto a probe r it
//     draws only then, and R−1 verifiers check the 2n projected values
//     against regenerated operands. About one computation instead of R; no
//     node can predict r, so what vote still catches and this does not is
//     an error below the probe tolerance.
//
// Either way, delivery without a majority is structurally impossible:
// the no-quorum path returns a typed aborted classification (or a typed
// 503 at admission), never a guess.

// candidateIter hands out the ranked placement order one node at a time,
// each node at most once — the distinctness guarantee. Nodes that do not
// admit work are skipped at take time (admission deliberately ignored
// breaker state; scheduling must not, or an open breaker would still
// receive traffic).
type candidateIter struct {
	mu     sync.Mutex
	ranked []*node
	next   int
}

func (it *candidateIter) take(now time.Time) *node {
	it.mu.Lock()
	defer it.mu.Unlock()
	for it.next < len(it.ranked) {
		nd := it.ranked[it.next]
		it.next++
		if nd.admits(now) {
			return nd
		}
	}
	return nil
}

// errNoCandidate ends a seat whose candidate order ran out before any node
// was asked.
var errNoCandidate = errors.New("no distinct candidate left")

// seat is one election seat's terminal reply: fcDelivered with the node and
// its decoded R, fcBadRequest with the node and its 400, or fcFailed with
// no node and the last error when no candidate answered.
type seat[R any] struct {
	nd    *node
	res   R
	class forwardClass
	err   error
}

// fillSeat drives one election seat to a terminal reply on route path: walk
// the shared candidate order, blocking-acquire the node's window (a vote
// needs this specific node; spilling would shrink the electorate), forward,
// and fail over to the next candidate on sheds and faults. What a 400 means
// is the route's to decide.
func fillSeat[R any](ctx context.Context, g *Gateway, it *candidateIter, path string, body []byte) seat[R] {
	lastErr := errNoCandidate
	for {
		nd := it.take(time.Now())
		if nd == nil {
			return seat[R]{class: fcFailed, err: lastErr}
		}
		if err := nd.acquire(ctx); err != nil {
			return seat[R]{class: fcFailed, err: err}
		}
		res, class, err := postJSON[R](ctx, nd, path, body)
		nd.release()
		switch {
		case class == fcDelivered || class == fcBadRequest:
			return seat[R]{nd: nd, res: res, class: class, err: err}
		case class == fcFailed && ctx.Err() != nil:
			return seat[R]{class: fcFailed, err: err}
		}
		lastErr = err
	}
}

// fillSeats fills k seats at once from one candidate order, which keeps
// their nodes distinct: k−1 on goroutines of their own and the last on the
// caller's.
func fillSeats[R any](ctx context.Context, g *Gateway, it *candidateIter, k int, path string, body []byte) []seat[R] {
	seats := make([]seat[R], k)
	if k == 0 {
		return seats
	}
	var wg sync.WaitGroup
	for i := range seats[:k-1] {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seats[i] = fillSeat[R](ctx, g, it, path, body)
		}(i)
	}
	seats[k-1] = fillSeat[R](ctx, g, it, path, body)
	wg.Wait()
	return seats
}

// doIntegrity admits and dispatches one integrity-tier request. ranked is
// the capability-filtered rendezvous order the single-placement path
// computed; body is the marshalled request every replica receives
// verbatim (same seed → same answer on honest nodes).
func (g *Gateway) doIntegrity(ctx context.Context, p serve.Parsed, wire string, body []byte, ranked []*node) (serve.Response, error) {
	r := p.Replicas
	if r == 0 {
		r = g.cfg.VoteReplicas
	}
	// Admission counts distinct schedulable nodes ignoring breaker state:
	// breakers are transient (a cooldown away from a trial), so an open
	// one narrows this election's electorate without shrinking the pool
	// the client was promised. Quorum stays over R, so fewer live ballots
	// only ever makes delivery harder, never easier.
	eligible := 0
	for _, nd := range ranked {
		if nd.inRotation() {
			eligible++
		}
	}
	if eligible < r {
		g.m.QuorumFail.Add(1)
		return serve.Response{}, fmt.Errorf("%w: integrity %s needs %d distinct healthy capable nodes, have %d",
			serve.ErrNoQuorum, p.Integrity, r, eligible)
	}
	if p.Integrity == serve.IntegrityVerifyVote {
		return g.doVerifyVote(ctx, p, body, ranked, r)
	}
	return g.doVote(ctx, p, wire, body, ranked, r)
}

// suspect charges one minority node: its well-formed answer lost an
// election with a reached majority, which is exactly the Byzantine signal
// transport-level breakers cannot see.
func (g *Gateway) suspect(nd *node, now time.Time) {
	nd.m.Suspects.Add(1)
	g.m.SuspectsTotal.Add(1)
	if nd.br.onSuspect(now) {
		nd.m.SuspectTrips.Add(1)
		g.m.SuspectTrips.Add(1)
	}
}

// abortedResponse builds the typed no-quorum classification — the
// integrity tier's analogue of the ladder's Aborted: a delivered,
// honest "we could not establish this answer".
func abortedResponse(p serve.Parsed, r, agree int, why string) serve.Response {
	return serve.Response{
		Kernel:       p.Kernel.String(),
		N:            p.Size(),
		Strategy:     p.Strategy.String(),
		VerifyMode:   p.Mode.String(),
		Outcome:      "aborted",
		Error:        why,
		Integrity:    p.Integrity.String(),
		VoteReplicas: r,
		VoteAgree:    agree,
	}
}

// doVote runs the FRFT-style election: R concurrent replica workers over
// the shared candidate order, then one count.
func (g *Gateway) doVote(ctx context.Context, p serve.Parsed, wire string, body []byte, ranked []*node, r int) (serve.Response, error) {
	results := fillSeats[serve.Response](ctx, g, &candidateIter{ranked: ranked}, r, "/v1/"+wire, body)

	ballots := make([]vote.Ballot, 0, r)
	slots := make([]int, 0, r) // ballot index -> results index
	var lastErr error
	for i, res := range results {
		switch res.class {
		case fcBadRequest:
			// Admission is deterministic across honest nodes: one node's
			// 400 is every node's 400.
			g.m.BadRequests.Add(1)
			return serve.Response{}, res.err
		case fcFailed:
			lastErr = res.err
		default:
			ballots = append(ballots, vote.Ballot{Node: res.nd.id, Outcome: res.res.Outcome, Sig: res.res.AnswerSig})
			slots = append(slots, i)
		}
	}
	if len(ballots) == 0 {
		g.m.Unavailable.Add(1)
		return serve.Response{}, fmt.Errorf("%w: no vote replica delivered: %v", serve.ErrUnavailable, lastErr)
	}

	d := vote.Decide(r, ballots)
	g.m.VotesTotal.Add(1)
	if !d.Reached {
		g.m.QuorumFail.Add(1)
		g.delivered("aborted")
		return abortedResponse(p, r, d.Best,
			fmt.Sprintf("%v: best agreement %d of %d replicas (quorum %d)",
				vote.ErrNoQuorum, d.Best, r, vote.Quorum(r))), nil
	}

	now := time.Now()
	for _, si := range d.Suspects {
		g.suspect(results[slots[si]].nd, now)
	}
	win := results[slots[d.Winner]]
	resp := win.res
	resp.Node = win.nd.id
	resp.Answer = nil // never ship payload bytes to voting clients
	resp.VoteReplicas = r
	resp.VoteAgree = len(d.Agree)
	g.delivered(resp.Outcome)
	return resp, nil
}

// doVerifyVote runs the DCRFT-style election: one primary computes, the
// gateway probes its shipped product, and R−1 distinct verifiers check the
// projections. The primary's own ballot counts (it signed its answer), so
// acceptance needs Quorum(R)−1 passing verifiers.
func (g *Gateway) doVerifyVote(ctx context.Context, p serve.Parsed, body []byte, ranked []*node, r int) (serve.Response, error) {
	// The probe comes from crypto/rand, which nothing a node sees derives,
	// and a node learns it only as a verifier, once the product is fixed.
	var rs [8]byte
	if _, err := rand.Read(rs[:]); err != nil {
		g.m.Unavailable.Add(1)
		return serve.Response{}, fmt.Errorf("%w: verify-vote probe: %v", serve.ErrUnavailable, err)
	}
	probeSeed := binary.LittleEndian.Uint64(rs[:])
	it := &candidateIter{ranked: ranked}
	pri := fillSeat[serve.Response](ctx, g, it, "/v1/gemm", body)
	switch pri.class {
	case fcBadRequest:
		g.m.BadRequests.Add(1)
		return serve.Response{}, pri.err
	case fcFailed:
		g.m.Unavailable.Add(1)
		return serve.Response{}, fmt.Errorf("%w: verify-vote primary: %v", serve.ErrUnavailable, pri.err)
	}

	g.m.VotesTotal.Add(1)
	resp := pri.res
	resp.Node = pri.nd.id
	resp.VoteReplicas = r
	if resp.Outcome == "aborted" {
		// An honest abort carries no answer to verify; it is already the
		// typed "no answer" classification, delivered as such.
		g.delivered(resp.Outcome)
		resp.VoteAgree = 1
		return resp, nil
	}
	// refute ends the election against the primary, the proven liar.
	refute := func(agree int, why string) (serve.Response, error) {
		g.suspect(pri.nd, time.Now())
		g.m.QuorumFail.Add(1)
		g.delivered("aborted")
		return abortedResponse(p, r, agree, fmt.Sprintf("%v: %s", vote.ErrNoQuorum, why)), nil
	}

	// One pass binds the shipped bytes to the primary's signature; json
	// refuses NaN or ±Inf, which an honest product never projects to. The
	// task is encoded once, for every verifier; a refusal here asks none.
	sig, ce, cr, err := abft.ProbeBlock(resp.Answer, p.N, mat.RandomVec(p.N, probeSeed))
	resp.Answer.Release() // the probe was its last reader
	tbuf := serve.GetBody()
	defer serve.PutBody(tbuf)
	switch {
	case err != nil:
	case !abft.SameAnswer(sig, resp.AnswerSig):
		err = fmt.Errorf("shipped answer hashes to %s, signed %q", sig, resp.AnswerSig)
	default:
		err = json.NewEncoder(tbuf).Encode(serve.VerifyTask{Kernel: p.Kernel.String(), N: p.N, Seed: p.Seed, ProbeSeed: probeSeed, Ce: ce, Cr: cr})
	}
	if err != nil {
		return refute(1, fmt.Sprintf("gateway refuted primary %s: %v", pri.nd.id, err))
	}
	tbody := tbuf.Bytes()

	verdicts := fillSeats[serve.VerifyResult](ctx, g, it, r-1, "/v1/verify", tbody)

	approvals := 1 // the primary backs its own signature
	var refuters []*node
	for _, v := range verdicts {
		switch {
		case v.class == fcFailed:
			// No verifier reachable for this slot; quorum bar unchanged.
		case v.class == fcDelivered && v.res.OK:
			approvals++
		default:
			// A verifier calling the task malformed while the primary
			// produced it is itself a disagreement: a refusal.
			refuters = append(refuters, v.nd)
		}
	}

	if approvals < vote.Quorum(r) {
		return refute(approvals, fmt.Sprintf("replicated verification refuted primary %s (%d of %d approvals, quorum %d)",
			pri.nd.id, approvals, r, vote.Quorum(r)))
	}
	// Accepted: a refuting minority voted against a reached majority.
	now := time.Now()
	for _, nd := range refuters {
		g.suspect(nd, now)
	}
	g.m.VerifyVoteCheapHits.Add(int64(approvals - 1))
	resp.VoteAgree = approvals
	g.delivered(resp.Outcome)
	return resp, nil
}
