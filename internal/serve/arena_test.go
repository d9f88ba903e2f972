package serve

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
)

// The f64 request path takes every n- and n²-sized buffer from a
// request-scoped mat.Arena over shared pools and returns them after the
// response is built. These tests hold the lifetime rule from outside:
// whatever a Response carries stays what it was, whoever gets the buffers
// next.

// ladderMixKinds are cmd/abftbench's ladder_f64_mix request shapes, signed
// so that responses can be compared, plus the one shape that ships its
// answer's bytes.
var ladderMixKinds = []Request{
	{Kernel: "gemm", N: 128, VerifyMode: "fused", Integrity: "vote"},
	{Kernel: "gemm", N: 128, VerifyMode: "notified", Integrity: "vote"},
	{Kernel: "cholesky", N: 128, Integrity: "vote"},
	{Kernel: "cg", NX: 24, NY: 24, Integrity: "vote"},
	{Kernel: "gemm", N: 128, VerifyMode: "fused", Integrity: "verify-vote"},
}

// TestConcurrentRequestsMatchSolo: 64 requests in flight on four executors
// share the pools every which way; each must come back exactly as the same
// request does on an idle service.
func TestConcurrentRequestsMatchSolo(t *testing.T) {
	busy := newTestService(t, Config{MaxConcurrency: 4, QueueDepth: 64, QueueTimeout: time.Minute})
	idle := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	const total = 64
	reqs := make([]Request, total)
	for i := range reqs {
		reqs[i] = ladderMixKinds[i%len(ladderMixKinds)]
		reqs[i].Seed = uint64(1000 + i/2) // pairs of kinds share a seed
	}
	got := make([]Response, total)
	errs := make([]error, total)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = busy.Do(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	for i, req := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want, err := idle.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if want.Outcome != "corrected" || want.AnswerSig == "" {
			t.Fatalf("request %d served alone: %+v", i, want)
		}
		if got[i].Outcome != want.Outcome || got[i].AnswerSig != want.AnswerSig || !bytes.Equal(got[i].Answer, want.Answer) {
			t.Errorf("request %d (%s seed %d): concurrent %s/%s/%d B, alone %s/%s/%d B", i, req.Kernel, req.Seed,
				got[i].Outcome, got[i].AnswerSig, len(got[i].Answer), want.Outcome, want.AnswerSig, len(want.Answer))
		}
	}
}

// poisonPools leaves NaN in the pooled buffers of every class an n-sized
// request draws from, as a finished request's released operands would.
func poisonPools(n int) {
	var a mat.Arena
	for i := 0; i < 8; i++ {
		for _, m := range []*mat.Matrix{a.New(n+1, n+1), a.New(1, 2*(n+1)), a.New(1, n)} {
			for k := range m.Data {
				m.Data[k] = math.NaN()
			}
		}
	}
	a.Release()
}

// TestResponseSurvivesBufferReuse: once Do has returned, the buffers the
// answer was computed in belong to the next request. The first response's
// bytes and signature must not change when they are overwritten, and the
// next request must not see what was left in them.
func TestResponseSurvivesBufferReuse(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	ctx := context.Background()
	req := Request{Kernel: "gemm", N: 64, VerifyMode: "fused", Integrity: "verify-vote", Seed: 41}
	first, err := s.Do(ctx, req)
	if err != nil || first.Outcome != "corrected" {
		t.Fatalf("first: %+v, %v", first, err)
	}
	kept := append([]byte(nil), first.Answer...)

	poisonPools(64)
	other := req
	other.Seed = 42
	second, err := s.Do(ctx, other)
	if err != nil || second.Outcome != "corrected" {
		t.Fatalf("second: %+v, %v", second, err)
	}
	if second.AnswerSig == first.AnswerSig {
		t.Fatal("different seeds, same signature")
	}
	poisonPools(64)

	if !bytes.Equal(first.Answer, kept) {
		t.Fatal("the first response's answer changed after its buffers were reused")
	}
	c, err := abft.UnpackBlock(64, 64, first.Answer)
	if err != nil {
		t.Fatal(err)
	}
	if sig := abft.BitDigest(c); sig != first.AnswerSig {
		t.Errorf("first answer now hashes to %s, its signature says %s", sig, first.AnswerSig)
	}
	// Both requests computed the right thing over poisoned storage: the
	// product of the operands their seeds regenerate.
	for _, r := range []struct {
		seed uint64
		resp Response
	}{{41, first}, {42, second}} {
		want := mat.Mul(mat.Random(64, 64, r.seed), mat.Random(64, 64, r.seed+1))
		if sig := abft.BitDigest(want); sig != r.resp.AnswerSig {
			t.Errorf("seed %d: signature %s, reference product hashes to %s", r.seed, r.resp.AnswerSig, sig)
		}
	}
	if again, err := s.Do(ctx, req); err != nil || again.AnswerSig != first.AnswerSig || !bytes.Equal(again.Answer, kept) {
		t.Errorf("replay after reuse differs: %v", err)
	}
}

// panicOnThirdErr is a context whose third Err() call panics. The
// dispatcher asks once before it starts the job and the coordinator's step
// hook once per tick, so the panic unwinds out of the kernel's panel loop
// after the first panel has run, with the request's buffers live.
type panicOnThirdErr struct {
	context.Context
	calls *atomic.Int32
}

func (c panicOnThirdErr) Err() error {
	if c.calls.Add(1) >= 3 {
		panic("test: injected kernel panic")
	}
	return nil
}

// TestKernelPanicLeavesServiceCorrect: a panicking request is classified
// aborted, its buffers are abandoned to the GC rather than pooled, and the
// service goes on answering correctly out of the same pools.
func TestKernelPanicLeavesServiceCorrect(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 16, QueueTimeout: time.Minute})
	ctx := context.Background()
	var want []Response
	for _, req := range ladderMixKinds {
		req.Seed = 77
		resp, err := s.Do(ctx, req)
		if err != nil || resp.Outcome != "corrected" {
			t.Fatalf("%s before the panic: %+v, %v", req.Kernel, resp, err)
		}
		want = append(want, resp)
	}
	for _, req := range ladderMixKinds {
		req.Seed = 78
		resp, err := s.Do(panicOnThirdErr{ctx, new(atomic.Int32)}, req)
		if err != nil {
			t.Fatalf("%s: panicking request returned an error instead of a classification: %v", req.Kernel, err)
		}
		if resp.Outcome != "aborted" || !strings.Contains(resp.Error, "kernel panicked") || resp.AnswerSig != "" {
			t.Errorf("%s: panicking request answered %+v", req.Kernel, resp)
		}
	}
	for round := 0; round < 3; round++ {
		for i, req := range ladderMixKinds {
			req.Seed = 77
			resp, err := s.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Outcome != want[i].Outcome || resp.AnswerSig != want[i].AnswerSig || !bytes.Equal(resp.Answer, want[i].Answer) {
				t.Errorf("%s after the panic: %s/%s, before: %s/%s", req.Kernel,
					resp.Outcome, resp.AnswerSig, want[i].Outcome, want[i].AnswerSig)
			}
		}
	}
	if got := s.Metrics().Aborted.Value(); got != int64(len(ladderMixKinds)) {
		t.Errorf("aborted counter = %d, want %d", got, len(ladderMixKinds))
	}
}

// TestWarmGEMMAllocationBudget: a warm n=128 fused GEMM request used to
// allocate 1.16 MB (three encoded matrices, two throw-away operands, a
// checkpoint shadow and the oracle's reference); with the arena what is
// left is the per-request machine model and bookkeeping, about 40 KiB. The
// budget fails long before an n²-sized buffer (128 KiB) could hide in it.
func TestWarmGEMMAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts and sync.Pool drops items under it")
	}
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	ctx := context.Background()
	req := Request{Kernel: "gemm", N: 128, VerifyMode: "fused"}
	serve := func(n int) {
		for i := 0; i < n; i++ {
			req.Seed++
			if resp, err := s.Do(ctx, req); err != nil || resp.Outcome != "corrected" {
				t.Fatalf("%+v, %v", resp, err)
			}
		}
	}
	serve(4) // fill the pools
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve(runs)
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("warm n=128 fused gemm request: %d B allocated", per)
	if per >= 64<<10 {
		t.Errorf("warm n=128 fused gemm request allocates %d B, budget is 64 KiB", per)
	}
}
