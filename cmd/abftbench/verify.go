package main

import (
	"fmt"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
	"coopabft/internal/serve"
)

// verifyRequests is how many requests the verification phase replays.
const verifyRequests = 32

// workerLimits are a default worker's admission bounds (serve.Config's
// defaults), for parsing requests the way a worker would.
var workerLimits = serve.Limits{MaxN: 192, MaxFaults: 8}

// verifyPhase replays the first n requests of the workload's sequence
// against one worker and checks the answers themselves, not only that they
// are classified: a GEMM product is fetched with integrity=verify-vote and
// checked against operands regenerated from the seed; a Cholesky factor or
// CG solution is fetched as a signature with integrity=vote and compared
// with a fault-free standalone run of the same seed. f32 answers never leave
// the worker, so they rest on the taxonomy and the server's own oracle, as do
// f64 answers the ladder had to repair (their low bits may differ from a
// fault-free run's). It returns the replies' tally and one message per
// mismatch.
func verifyPhase(st *stack, w *workload, seed uint64, n int) (tally, []string) {
	var t tally
	var mismatches []string
	cl := newClient()
	defer cl.close()
	for i := 0; i < n; i++ {
		k, req := w.request(seed, 0, i, clients)
		kd := w.kinds[k]
		switch {
		case kd.f32():
		case req.Kernel == "gemm":
			req.Integrity = "verify-vote"
		case !kd.faulted():
			req.Integrity = "vote"
		}
		rep := cl.post(st.nodeURL[0], req)
		v := classify(req, rep)
		t.record(req, v, rep)
		if v != answered || req.Integrity == "" {
			continue
		}
		if err := checkAnswer(req, rep.resp); err != nil {
			t.wrong++
			mismatches = append(mismatches, fmt.Sprintf("%s request %d (%s, seed %d): %v", w.name, i, kd.name, req.Seed, err))
		}
	}
	return t, mismatches
}

// checkAnswer verifies one integrity-tier response from outside the system.
func checkAnswer(req serve.Request, resp serve.Response) error {
	if req.Integrity == "verify-vote" {
		c, err := abft.UnpackBlock(req.N, req.N, resp.Answer)
		if err != nil {
			return fmt.Errorf("shipped product: %w", err)
		}
		if sig := abft.AnswerSig(rows(c, c.Rows)...); !abft.SameAnswer(sig, resp.AnswerSig) {
			return fmt.Errorf("shipped product hashes to %s, response claims %s", sig, resp.AnswerSig)
		}
		a, b := mat.Random(req.N, req.N, req.Seed), mat.Random(req.N, req.N, req.Seed+1)
		return abft.CheckProduct(a, b, c, req.Seed, abft.BlockTol(req.N))
	}
	p, err := serve.ParseRequest(workerLimits, req)
	if err != nil {
		return err
	}
	ref, err := runABFT(p)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if sig := abft.AnswerSig(ref.answer...); !abft.SameAnswer(sig, resp.AnswerSig) {
		return fmt.Errorf("answer signature %s differs from the fault-free reference %s", resp.AnswerSig, sig)
	}
	return nil
}
