package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
)

func testLimits() Limits { return Limits{MaxN: 192, MaxFaults: 8} }

// TestParseIntegrityAdmission: the integrity wire fields share the single
// ErrBadRequest taxonomy — unknown modes, verify-vote off gemm, and
// replica counts without a mode (or beyond the cap) are all typed 400s.
func TestParseIntegrityAdmission(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"default none", Request{Kernel: "gemm", N: 48}, true},
		{"vote gemm", Request{Kernel: "gemm", N: 48, Integrity: "vote", Replicas: 3}, true},
		{"vote cg", Request{Kernel: "cg", NX: 8, NY: 8, Integrity: "vote"}, true},
		{"verify-vote gemm", Request{Kernel: "gemm", N: 48, Integrity: "verify-vote"}, true},
		{"unknown integrity", Request{Kernel: "gemm", N: 48, Integrity: "paxos"}, false},
		{"verify-vote cholesky", Request{Kernel: "cholesky", N: 32, Integrity: "verify-vote"}, false},
		{"verify-vote cg", Request{Kernel: "cg", NX: 8, NY: 8, Integrity: "verify-vote"}, false},
		{"replicas without integrity", Request{Kernel: "gemm", N: 48, Replicas: 3}, false},
		{"replicas beyond cap", Request{Kernel: "gemm", N: 48, Integrity: "vote", Replicas: MaxReplicas + 1}, false},
		{"negative replicas", Request{Kernel: "gemm", N: 48, Integrity: "vote", Replicas: -1}, false},
	}
	for _, tc := range cases {
		_, err := ParseRequest(testLimits(), tc.req)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
}

// TestBatchNeverMixesIntegrity: requests in different integrity modes must
// not coalesce — a voting request batched with a none request would either
// compute signatures on the hot path or skip them for a voter.
func TestBatchNeverMixesIntegrity(t *testing.T) {
	base := Request{Kernel: "gemm", N: 48, Seed: 1}
	none, err := ParseRequest(testLimits(), base)
	if err != nil {
		t.Fatal(err)
	}
	voted := base
	voted.Integrity = "vote"
	v, err := ParseRequest(testLimits(), voted)
	if err != nil {
		t.Fatal(err)
	}
	if !compatible(none, none) {
		t.Fatal("identical requests must be batch-compatible")
	}
	if compatible(none, v) || compatible(v, none) {
		t.Error("none and vote requests coalesced into one batch")
	}
}

// TestIntegrityStamping: a voting request carries the canonical signature,
// verify-vote additionally ships the packed answer, and the integrity=none
// hot path carries neither.
func TestIntegrityStamping(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 16, QueueTimeout: time.Minute})
	ctx := context.Background()

	plain, err := s.Do(ctx, Request{Kernel: "gemm", N: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if plain.AnswerSig != "" || plain.Answer != nil || plain.Integrity != "" {
		t.Errorf("integrity=none response carries integrity fields: %+v", plain)
	}

	vote, err := s.Do(ctx, Request{Kernel: "gemm", N: 48, Seed: 7, Integrity: "vote"})
	if err != nil {
		t.Fatal(err)
	}
	if vote.Integrity != "vote" || vote.AnswerSig == "" || vote.Answer != nil {
		t.Errorf("vote response = %+v, want signature and no payload", vote)
	}
	if vote.Outcome != plain.Outcome {
		t.Errorf("integrity changed the outcome: %q vs %q", vote.Outcome, plain.Outcome)
	}

	vv, err := s.Do(ctx, Request{Kernel: "gemm", N: 48, Seed: 7, Integrity: "verify-vote"})
	if err != nil {
		t.Fatal(err)
	}
	if vv.AnswerSig != vote.AnswerSig {
		t.Errorf("same seed, different signatures: %s vs %s", vv.AnswerSig, vote.AnswerSig)
	}
	if len(vv.Answer) != 48*48*8 {
		t.Fatalf("verify-vote answer = %d bytes, want %d", len(vv.Answer), 48*48*8)
	}
	// The shipped bytes must hash to the shipped signature (the binding the
	// gateway checks).
	c, err := abft.UnpackBlock(48, 48, vv.Answer)
	if err != nil {
		t.Fatal(err)
	}
	if got := abft.BitDigest(c); got != vv.AnswerSig {
		t.Errorf("shipped answer hashes to %s, signature claims %s", got, vv.AnswerSig)
	}

	// Cholesky and CG sign too — vote covers every kernel.
	for _, req := range []Request{
		{Kernel: "cholesky", N: 32, Seed: 9, Integrity: "vote"},
		{Kernel: "cg", NX: 8, NY: 8, Seed: 9, Integrity: "vote"},
	} {
		resp, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Outcome != "aborted" && resp.AnswerSig == "" {
			t.Errorf("%s vote response unsigned: %+v", req.Kernel, resp)
		}
	}
}

// TestByzantineLieFixture: a lying node produces a well-formed, internally
// consistent (signature matches payload) but WRONG answer — deterministic
// per (LieSeed, request seed) — and never perturbs integrity=none traffic.
func TestByzantineLieFixture(t *testing.T) {
	honest := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 16, QueueTimeout: time.Minute})
	liar := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 16, QueueTimeout: time.Minute,
		LieFraction: 1, LieSeed: 42})
	ctx := context.Background()
	req := Request{Kernel: "gemm", N: 48, Seed: 13, Integrity: "verify-vote"}

	h, err := honest.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := liar.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := liar.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if abft.SameAnswer(l1.AnswerSig, h.AnswerSig) {
		t.Error("liar's signature matches the honest answer — no lie happened")
	}
	if l1.AnswerSig != l2.AnswerSig {
		t.Errorf("lie not deterministic on replay: %s vs %s", l1.AnswerSig, l2.AnswerSig)
	}
	// Internally consistent: the corrupted payload hashes to the corrupted
	// signature, so only cross-node voting can catch it.
	c, err := abft.UnpackBlock(48, 48, l1.Answer)
	if err != nil {
		t.Fatal(err)
	}
	if got := abft.BitDigest(c); got != l1.AnswerSig {
		t.Errorf("liar's payload hashes to %s, claims %s — lie is malformed, not Byzantine", got, l1.AnswerSig)
	}
	// Adaptive: three entries of the first row moved by at least 1.5 each,
	// and both probes a worker can predict (the ones vector and the one
	// derived from the request seed) pass the lie.
	moved := 0
	for k, v := range h.Answer {
		if v != l1.Answer[k] {
			i := k / 8
			d := math.Abs(c.Data[i] - math.Float64frombits(binary.LittleEndian.Uint64(h.Answer[8*i:])))
			if i >= 48 || !(d >= 1.5) {
				t.Fatalf("the lie moved element %d by %g: want three entries of row 0, each by at least 1.5", i, d)
			}
			moved |= 1 << i
		}
	}
	if bits.OnesCount(uint(moved)) != 3 {
		t.Errorf("the lie moved %d entries of row 0, want 3", bits.OnesCount(uint(moved)))
	}
	if err := abft.CheckProduct(mat.Random(48, 48, 13), mat.Random(48, 48, 14), c, 13, abft.BlockTol(48)); err != nil {
		t.Errorf("the seed-derived probes catch the lie, so it is not adaptive: %v", err)
	}
	if liar.m.ByzantineLies.Value() != 2 {
		t.Errorf("byzantine_lies = %d, want 2", liar.m.ByzantineLies.Value())
	}

	// integrity=none is never touched by the fixture: no signature is
	// computed, so there is nothing to corrupt.
	plain, err := liar.Do(ctx, Request{Kernel: "gemm", N: 48, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if plain.AnswerSig != "" || plain.Answer != nil {
		t.Errorf("lie fixture leaked into integrity=none: %+v", plain)
	}
}

// verifyTask is the task a gateway sends a verifier for the product a
// primary shipped as packed, probed with probeSeed.
func verifyTask(t testing.TB, n int, seed, probeSeed uint64, packed []byte) VerifyTask {
	t.Helper()
	_, ce, cr, err := abft.ProbeBlock(packed, n, mat.RandomVec(n, probeSeed))
	if err != nil {
		t.Fatal(err)
	}
	return VerifyTask{Kernel: "gemm", N: n, Seed: seed, ProbeSeed: probeSeed, Ce: ce, Cr: cr}
}

// TestDoVerify: the replicated verification pass accepts the projections of
// the primary's honest product, refutes those of a lying node's adaptive lie
// (which passes every probe a worker can predict) and those of the honest
// product under any other probe than the one they were taken with, and types
// a malformed task a 400.
func TestDoVerify(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 16, QueueTimeout: time.Minute})
	liar := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 16, QueueTimeout: time.Minute,
		LieFraction: 1, LieSeed: 42})
	ctx := context.Background()
	req := Request{Kernel: "gemm", N: 48, Seed: 21, Integrity: "verify-vote"}
	resp, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome == "aborted" {
		t.Fatalf("fixture run aborted: %s", resp.Error)
	}
	task := verifyTask(t, 48, 21, 0x5eed, resp.Answer)
	res, err := s.DoVerify(ctx, task)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Reason != "" {
		t.Fatalf("honest product refuted: %+v", res)
	}

	lie, err := liar.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.DoVerify(ctx, verifyTask(t, 48, 21, 0x5eed, lie.Answer))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || !strings.Contains(res.Reason, "random probe row 0") {
		t.Errorf("adaptive lie: %+v, want refuted by the random probe on row 0", res)
	}

	other := task
	other.ProbeSeed++
	if res, err = s.DoVerify(ctx, other); err != nil || res.OK {
		t.Errorf("projections checked against another probe: %+v, %v", res, err)
	}

	// Admission taxonomy: non-gemm and malformed tasks are typed 400s.
	if _, err := s.DoVerify(ctx, VerifyTask{Kernel: "cholesky", N: 32}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("cholesky verify task: err = %v, want ErrBadRequest", err)
	}
	short := task
	short.Cr = task.Cr[:47]
	if _, err := s.DoVerify(ctx, short); !errors.Is(err, ErrBadRequest) {
		t.Errorf("47 probe values for n=48: err = %v, want ErrBadRequest", err)
	}
	if got := s.m.VerifyRefuted.Value(); got != 2 {
		t.Errorf("verify_refuted = %d, want 2", got)
	}
}

// TestQueuedVerifyTaskHoldsNoProduct: a verify task is parsed before it is
// admitted, so whatever parsing allocates is held by every task waiting for
// a slot and wasted on every task that is shed. A task carries 2n probe
// values and no product; with the slots held, 64 n=192 tasks that wait and
// end in ErrQueueTimeout must each allocate less than their own 16n-byte
// payload, which rules out anything n-sized, let alone the operands. The
// task's values are the caller's and are shared here.
func TestQueuedVerifyTaskHoldsNoProduct(t *testing.T) {
	s := newTestService(t, Config{BlockConcurrency: 1, QueueTimeout: 50 * time.Millisecond})
	const n, tasks = 192, 64
	task := VerifyTask{Kernel: "gemm", N: n, Seed: 5, ProbeSeed: 6, Ce: make([]float64, n), Cr: make([]float64, n)}
	s.verify.sem <- struct{}{} // the route's only slot
	defer func() { <-s.verify.sem }()

	errs := make([]error, tasks)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.DoVerify(context.Background(), task)
		}(i)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	for i, err := range errs {
		if !errors.Is(err, ErrQueueTimeout) {
			t.Fatalf("task %d: err = %v, want ErrQueueTimeout", i, err)
		}
	}
	if got := s.m.Verify.Shed.Value(); got != tasks {
		t.Errorf("verify_shed = %d, want %d", got, tasks)
	}
	grown := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d shed n=%d verify tasks allocated %d B each; a task's payload is %d B", tasks, n, grown/tasks, 16*n)
	if grown >= tasks*16*n {
		t.Errorf("%d queued tasks allocated %d B each, as much as their %d-byte payload: something n-sized is back ahead of admission", tasks, grown/tasks, 16*n)
	}
}
