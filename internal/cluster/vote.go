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
// each node at most once — the distinctness guarantee. Draining,
// unhealthy, and breaker-open nodes are skipped at take time (admission
// deliberately ignored breaker state; scheduling must not, or an open
// breaker would still receive traffic).
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
		if nd.draining.Load() || !nd.healthy.Load() {
			continue
		}
		if !nd.br.allow(now) {
			nd.m.BreakerSkips.Add(1)
			continue
		}
		return nd
	}
	return nil
}

// replicaResult is one replica worker's terminal state.
type replicaResult struct {
	nd   *node
	resp serve.Response
	err  error // non-nil when no candidate delivered
	bad  error // non-nil on a node-validated 400 (global, deterministic)
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
		if !nd.draining.Load() && nd.healthy.Load() {
			eligible++
		}
	}
	if eligible < r {
		g.m.QuorumFail.Add(1)
		return serve.Response{}, fmt.Errorf("%w: integrity %s needs %d distinct healthy capable nodes, have %d",
			ErrNoQuorum, p.Integrity, r, eligible)
	}
	if p.Integrity == serve.IntegrityVerifyVote {
		return g.doVerifyVote(ctx, p, body, ranked, r)
	}
	return g.doVote(ctx, p, wire, body, ranked, r)
}

// voteReplica drives one replica to a terminal state: walk the shared
// candidate order, blocking-acquire the node's window (a vote needs this
// specific node; spilling would shrink the electorate), forward, and fail
// over to the next candidate on sheds and transport faults.
func (g *Gateway) voteReplica(ctx context.Context, it *candidateIter, wire string, body []byte) replicaResult {
	var lastErr error
	for {
		nd := it.take(time.Now())
		if nd == nil {
			if lastErr == nil {
				lastErr = errors.New("no distinct candidate left")
			}
			return replicaResult{err: lastErr}
		}
		if err := nd.acquire(ctx); err != nil {
			return replicaResult{err: err}
		}
		resp, class, err := postJSON[serve.Response](ctx, g.cfg.Client, nd, "/v1/"+wire, body)
		nd.release()
		switch class {
		case fcDelivered:
			if tripped := nd.br.onDelivered(time.Now(), resp.Outcome == "aborted"); tripped {
				nd.m.BreakerTrips.Add(1)
			}
			nd.m.Delivered.Add(1)
			return replicaResult{nd: nd, resp: resp}
		case fcBadRequest:
			return replicaResult{bad: err}
		case fcShed:
			nd.m.Rejected429.Add(1)
			lastErr = err
		case fcFailed:
			if tripped := nd.br.onFailure(time.Now()); tripped {
				nd.m.BreakerTrips.Add(1)
			}
			lastErr = err
			if ctx.Err() != nil {
				return replicaResult{err: lastErr}
			}
		}
	}
}

// suspect charges one minority node: its well-formed answer lost an
// election with a reached majority, which is exactly the Byzantine signal
// transport-level breakers cannot see.
func (g *Gateway) suspect(nd *node, now time.Time) {
	nd.m.Suspects.Add(1)
	g.m.SuspectsTotal.Add(1)
	if nd.br.onSuspect(now) {
		nd.m.SuspectTrips.Add(1)
		nd.m.BreakerTrips.Add(1)
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
	it := &candidateIter{ranked: ranked}
	results := make([]replicaResult, r)
	var wg sync.WaitGroup
	for i := 0; i < r; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = g.voteReplica(ctx, it, wire, body)
		}(i)
	}
	wg.Wait()

	ballots := make([]vote.Ballot, 0, r)
	slots := make([]int, 0, r) // ballot index -> results index
	var lastErr error
	for i, res := range results {
		switch {
		case res.bad != nil:
			// Admission is deterministic across honest nodes: one node's
			// 400 is every node's 400.
			g.m.BadRequests.Add(1)
			return serve.Response{}, res.bad
		case res.err != nil:
			lastErr = res.err
		default:
			ballots = append(ballots, vote.Ballot{Node: res.nd.id, Outcome: res.resp.Outcome, Sig: res.resp.AnswerSig})
			slots = append(slots, i)
		}
	}
	if len(ballots) == 0 {
		g.m.Unavailable.Add(1)
		return serve.Response{}, fmt.Errorf("%w: no vote replica delivered: %v", ErrUnavailable, lastErr)
	}

	d := vote.Decide(r, ballots)
	g.m.VotesTotal.Add(1)
	g.m.Delivered.Add(1)
	if !d.Reached {
		g.m.QuorumFail.Add(1)
		g.m.Aborted.Add(1)
		return abortedResponse(p, r, d.Best,
			fmt.Sprintf("%v: best agreement %d of %d replicas (quorum %d)",
				vote.ErrNoQuorum, d.Best, r, vote.Quorum(r))), nil
	}

	now := time.Now()
	for _, si := range d.Suspects {
		g.suspect(results[slots[si]].nd, now)
	}
	win := results[slots[d.Winner]]
	resp := win.resp
	resp.Node = win.nd.id
	resp.Answer = nil // never ship payload bytes to voting clients
	resp.VoteReplicas = r
	resp.VoteAgree = len(d.Agree)
	switch resp.Outcome {
	case "corrected":
		g.m.Corrected.Add(1)
	case "restarted":
		g.m.Restarted.Add(1)
	case "aborted":
		g.m.Aborted.Add(1)
	}
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
		return serve.Response{}, fmt.Errorf("%w: verify-vote probe: %v", ErrUnavailable, err)
	}
	probeSeed := binary.LittleEndian.Uint64(rs[:])
	it := &candidateIter{ranked: ranked}
	pri := g.voteReplica(ctx, it, "gemm", body)
	switch {
	case pri.bad != nil:
		g.m.BadRequests.Add(1)
		return serve.Response{}, pri.bad
	case pri.err != nil:
		g.m.Unavailable.Add(1)
		return serve.Response{}, fmt.Errorf("%w: verify-vote primary: %v", ErrUnavailable, pri.err)
	}

	g.m.VotesTotal.Add(1)
	g.m.Delivered.Add(1)
	resp := pri.resp
	resp.Node = pri.nd.id
	resp.VoteReplicas = r
	if resp.Outcome == "aborted" {
		// An honest abort carries no answer to verify; it is already the
		// typed "no answer" classification, delivered as such.
		g.m.Aborted.Add(1)
		resp.VoteAgree = 1
		return resp, nil
	}
	// refute ends the election against the primary, the proven liar.
	refute := func(agree int, why string) (serve.Response, error) {
		g.suspect(pri.nd, time.Now())
		g.m.QuorumFail.Add(1)
		g.m.Aborted.Add(1)
		return abortedResponse(p, r, agree, fmt.Sprintf("%v: %s", vote.ErrNoQuorum, why)), nil
	}

	// One pass binds the shipped bytes to the primary's signature; json
	// refuses NaN or ±Inf, which an honest product never projects to. The
	// task is encoded once, for every verifier; a refusal here asks none.
	sig, ce, cr, err := abft.ProbeBlock(resp.Answer, p.N, mat.RandomVec(p.N, probeSeed))
	tbuf := serve.GetBody()
	defer serve.PutBody(tbuf)
	switch {
	case err != nil:
	case !abft.SameAnswer(sig, resp.AnswerSig):
		err = fmt.Errorf("shipped answer hashes to %s, signed %q", sig, resp.AnswerSig)
	default:
		err = json.NewEncoder(tbuf).Encode(serve.VerifyTask{Kernel: "gemm", N: p.N, Seed: p.Seed, ProbeSeed: probeSeed, Ce: ce, Cr: cr})
	}
	if err != nil {
		return refute(1, fmt.Sprintf("gateway refuted primary %s: %v", pri.nd.id, err))
	}
	tbody := tbuf.Bytes()

	verdicts := make([]*verdictResult, r-1)
	var wg sync.WaitGroup
	for i := 0; i < r-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verdicts[i] = g.verifyReplica(ctx, it, tbody)
		}(i)
	}
	wg.Wait()

	approvals := 1 // the primary backs its own signature
	var refuters []*node
	for _, v := range verdicts {
		if v == nil {
			continue // no verifier reachable for this slot; quorum bar unchanged
		}
		if v.ok {
			approvals++
		} else {
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
	resp.Answer = nil
	resp.VoteAgree = approvals
	switch resp.Outcome {
	case "corrected":
		g.m.Corrected.Add(1)
	case "restarted":
		g.m.Restarted.Add(1)
	}
	return resp, nil
}

// verifyReplica drives one verifier slot to a verdict (or nil when no
// distinct candidate could be reached): same candidate discipline as
// voteReplica, POSTing /v1/verify instead of a kernel route.
func (g *Gateway) verifyReplica(ctx context.Context, it *candidateIter, tbody []byte) *verdictResult {
	for {
		nd := it.take(time.Now())
		if nd == nil {
			return nil
		}
		if err := nd.acquire(ctx); err != nil {
			return nil
		}
		res, class, _ := postJSON[serve.VerifyResult](ctx, g.cfg.Client, nd, "/v1/verify", tbody)
		nd.release()
		switch class {
		case fcDelivered:
			if tripped := nd.br.onDelivered(time.Now(), false); tripped {
				nd.m.BreakerTrips.Add(1)
			}
			nd.m.Delivered.Add(1)
			return &verdictResult{nd: nd, ok: res.OK}
		case fcBadRequest:
			// A verifier calling the task malformed while the primary
			// produced it is itself a disagreement; treat as a refusal.
			return &verdictResult{nd: nd, ok: false}
		case fcFailed:
			if tripped := nd.br.onFailure(time.Now()); tripped {
				nd.m.BreakerTrips.Add(1)
			}
			if ctx.Err() != nil {
				return nil
			}
		case fcShed:
			nd.m.Rejected429.Add(1)
		}
	}
}

type verdictResult struct {
	nd *node
	ok bool
}
