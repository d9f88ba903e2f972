package serve

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/core"
	"coopabft/internal/mat"
)

// The request path takes every n- and n²-sized buffer, of either element
// type, from a request-scoped mat.Arena over shared free lists and returns
// them after the response is built. These tests hold the lifetime rule from
// outside: whatever a Response carries stays what it was, whoever gets the
// buffers next.

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

// f32Kinds are the mixed-precision shapes of cmd/abftbench's wire_f32_n16,
// kernel_f32_n192 and chaos_vote_mix. An f32 response carries no signature
// (admission rejects the integrity tier), so what can be compared is its
// classification; the faulted shape runs the pristine-operand oracle, which
// vouches for the product itself.
var f32Kinds = []Request{
	{Kernel: "gemm", N: 16, Dtype: "f32"},
	{Kernel: "gemm", N: 64, Dtype: "f32"},
	{Kernel: "gemm", N: 192, Dtype: "f32"},
	{Kernel: "gemm", N: 64, Dtype: "f32", Faults: 1},
}

// sameClassification compares what an f32 response reports of its run.
func sameClassification(a, b Response) bool {
	return a.Outcome == b.Outcome && a.Injected == b.Injected && a.Corrections == b.Corrections &&
		a.Restarts == b.Restarts && a.Error == b.Error
}

// TestConcurrentRequestsMatchSolo: 64 requests in flight on four executors
// share the pools of both element types every which way; each must come
// back exactly as the same request does on an idle service.
func TestConcurrentRequestsMatchSolo(t *testing.T) {
	busy := newTestService(t, Config{MaxConcurrency: 4, QueueDepth: 64, QueueTimeout: time.Minute})
	idle := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	const total = 64
	kinds := append(append([]Request(nil), ladderMixKinds...), f32Kinds...)
	reqs := make([]Request, total)
	for i := range reqs {
		reqs[i] = kinds[i%len(kinds)]
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
		if req.Dtype == "f32" {
			if want.Outcome == "aborted" || want.Injected != req.Faults {
				t.Fatalf("request %d served alone: %+v", i, want)
			}
			if !sameClassification(got[i], want) {
				t.Errorf("request %d (f32 n=%d faults=%d seed %d): concurrent %+v, alone %+v", i, req.N, req.Faults, req.Seed, got[i], want)
			}
			continue
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

// TestConcurrentRequestsOnRecycledNodesMatchFreshNodes: f64 requests run on
// functional nodes taken from a free list and reset, not built. 64 in flight on
// four executors, clean and faulted, over all three kernels, all six
// strategies and all four fault kinds, so that a node's next life rarely
// resembles its last; each must come back exactly as the same request does
// alone on a service that has never served anything, whose node is new.
func TestConcurrentRequestsOnRecycledNodesMatchFreshNodes(t *testing.T) {
	busy := newTestService(t, Config{MaxConcurrency: 4, QueueDepth: 64, QueueTimeout: time.Minute})
	const total = 64
	kernels := []Request{{Kernel: "gemm", N: 64}, {Kernel: "cholesky", N: 64}, {Kernel: "cg", NX: 16, NY: 16},
		{Kernel: "gemm", N: 64, VerifyMode: "fused"}}
	kinds := []string{"single-bit", "double-bit", "chip-failure", "scattered"}
	reqs := make([]Request, total)
	for i := range reqs {
		reqs[i] = kernels[i%len(kernels)]
		reqs[i].Strategy = core.Strategies[i%len(core.Strategies)].String()
		reqs[i].Seed = uint64(500 + i)
		reqs[i].Integrity = "vote"
		if i%3 != 0 {
			reqs[i].Faults, reqs[i].FaultKind = 1+i%4, kinds[i/4%len(kinds)]
		}
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
	if _, ok := busy.nodes.Get(); !ok {
		t.Error("64 requests left no node in the free list: nothing was recycled")
	}
	outcomes := map[string]int{}
	for i, req := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		alone := New(Config{MaxConcurrency: 1, QueueDepth: 1, QueueTimeout: time.Minute})
		want, err := alone.Do(context.Background(), req)
		alone.Close()
		if err != nil {
			t.Fatal(err)
		}
		outcomes[want.Outcome]++
		// Timings and batch size aside, the whole response.
		got[i].QueueMS, got[i].RunMS, got[i].BatchSize = want.QueueMS, want.RunMS, want.BatchSize
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("request %d (%s %s faults=%d %s seed %d):\n concurrent, recycled node %+v\n alone, new node           %+v",
				i, req.Kernel, req.Strategy, req.Faults, req.FaultKind, req.Seed, got[i], want)
		}
	}
	if outcomes["corrected"] == 0 || outcomes["restarted"] == 0 {
		t.Errorf("the mix does not reach both repair and rollback: %v", outcomes)
	}
	if armed := busy.Metrics().SimArmed.Value(); armed == 0 || armed == total {
		t.Errorf("sim_armed = %d of %d: the mix should hold armed and dormant lives", armed, total)
	}
}

// poisonPools leaves NaN in the pooled buffers of every class an n-sized
// request of either element type draws from, as a finished request's
// released operands would.
func poisonPools(n int) {
	var a mat.Arena
	for i := 0; i < 8; i++ {
		for _, m := range []*mat.Matrix{a.New(n+1, n+1), a.New(n, n), a.New(1, 2*(n+1)), a.New(1, n), a.New(1, 8*n+64)} {
			for k := range m.Data {
				m.Data[k] = math.NaN()
			}
		}
		m := mat.NewIn[float32](&a, n, n)
		for k := range m.Data {
			m.Data[k] = float32(math.NaN())
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
// slot holder asks once before it starts the job and the coordinator's step
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
// aborted, its buffers and its node are abandoned to the GC rather than
// pooled, and the service goes on answering correctly out of the same pools.
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
	// The same unwind, seen from where the node and the arena are: the ladder
	// returns neither (a normal return hands back both, for execute to pool).
	p, err := ParseRequest(s.cfg.Limits(), ladderMixKinds[0])
	if err != nil {
		t.Fatal(err)
	}
	calls := new(atomic.Int32)
	calls.Store(1) // the slot holder's call
	arena := new(mat.Arena)
	if rep, w, node := s.runLadder(&job{ctx: panicOnThirdErr{ctx, calls}, req: p}, arena); rep.Outcome.String() != "aborted" ||
		w != nil || node != nil || !reflect.DeepEqual(*arena, mat.Arena{}) {
		t.Errorf("direct panicking run: %+v, workload %v, node %v, arena %+v; want aborted and nothing to pool", rep, w, node, *arena)
	}
	if _, _, node := s.runLadder(&job{ctx: ctx, req: p}, arena); node == nil || reflect.DeepEqual(*arena, mat.Arena{}) {
		t.Error("a normal run returned no node or an empty arena: the check above proves nothing")
	}
	arena.Release()

	for round := 0; round < 100/len(ladderMixKinds); round++ {
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

// TestF32ResponseSurvivesBufferReuse is the f32 side of the same rule. An f32
// response ships no answer bytes, so the check is that nothing it does carry
// moves when a second request computes in the first one's buffers, and that
// both requests, faulted so that the oracle recomputes the product from
// pristine operands, come out right over storage left full of NaN.
func TestF32ResponseSurvivesBufferReuse(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	ctx := context.Background()
	req := Request{Kernel: "gemm", N: 64, Dtype: "f32", Faults: 1, Seed: 1} // a C flip, repaired in place
	poisonPools(64)
	first, err := s.Do(ctx, req)
	if err != nil || first.Outcome != "corrected" || first.Corrections == 0 {
		t.Fatalf("first: %+v, %v", first, err)
	}
	kept := first
	poisonPools(64)
	other := req
	other.Seed = 3 // an operand flip: detected, rebuilt, rerun
	second, err := s.Do(ctx, other)
	if err != nil || second.Outcome != "restarted" || second.Restarts != 1 {
		t.Fatalf("second: %+v, %v", second, err)
	}
	poisonPools(64)
	if !reflect.DeepEqual(first, kept) {
		t.Errorf("the first response changed after its buffers were reused: %+v, was %+v", first, kept)
	}
	if again, err := s.Do(ctx, req); err != nil || !sameClassification(again, kept) {
		t.Errorf("replay after reuse differs: %+v, %v; was %+v", again, err, kept)
	}
}

// TestF32PanicOnRestartLeavesServiceCorrect: the f32 ladder asks its context
// once per attempt, after the slot holder asked once, so the third Err() is
// the restart that follows an operand fault, when the arena already holds a
// whole attempt's buffers. The guard must classify the request aborted and
// empty the arena, so that execute's Release pools nothing, and the service
// must go on answering correctly out of the same pools.
func TestF32PanicOnRestartLeavesServiceCorrect(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 16, QueueTimeout: time.Minute})
	ctx := context.Background()
	restarting := Request{Kernel: "gemm", N: 64, Dtype: "f32", Faults: 1, Seed: 3}
	if resp, err := s.Do(ctx, restarting); err != nil || resp.Outcome != "restarted" {
		t.Fatalf("the request this test panics in does not restart: %+v, %v", resp, err)
	}
	var want []Response
	for _, req := range f32Kinds {
		req.Seed = 77
		resp, err := s.Do(ctx, req)
		if err != nil || resp.Outcome == "aborted" {
			t.Fatalf("n=%d before the panic: %+v, %v", req.N, resp, err)
		}
		want = append(want, resp)
	}

	resp, err := s.Do(panicOnThirdErr{ctx, new(atomic.Int32)}, restarting)
	if err != nil {
		t.Fatalf("panicking request returned an error instead of a classification: %v", err)
	}
	if resp.Outcome != "aborted" || !strings.Contains(resp.Error, "kernel panicked") {
		t.Errorf("panicking request answered %+v", resp)
	}
	// The same unwind, seen from where the arena is: the ladder returns it
	// empty (a normal return leaves it holding the attempts' buffers).
	p, err := ParseRequest(s.cfg.Limits(), restarting)
	if err != nil {
		t.Fatal(err)
	}
	calls := new(atomic.Int32)
	calls.Store(1) // the slot holder's call
	arena := new(mat.Arena)
	if rep, g := s.runLadder32(&job{ctx: panicOnThirdErr{ctx, calls}, req: p}, arena); rep.Outcome.String() != "aborted" || g != nil {
		t.Errorf("direct panicking run: %+v, kernel object %p kept for the list", rep, g)
	}
	if !reflect.DeepEqual(*arena, mat.Arena{}) {
		t.Error("the panic guard left buffers in the arena for Release to pool")
	}
	if s.runLadder32(&job{ctx: ctx, req: p}, arena); reflect.DeepEqual(*arena, mat.Arena{}) {
		t.Error("a normal run left nothing in the arena: the check above proves nothing")
	}
	arena.Release()

	for round := 0; round < 100/len(f32Kinds); round++ {
		for i, req := range f32Kinds {
			req.Seed = 77
			resp, err := s.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !sameClassification(resp, want[i]) {
				t.Errorf("n=%d after the panic: %+v, before: %+v", req.N, resp, want[i])
			}
		}
	}
	if got := s.Metrics().Aborted.Value(); got != 1 {
		t.Errorf("aborted counter = %d, want 1", got)
	}
}

// cancelOnThirdErr is a context that reports cancellation from its third
// Err() call on: for an f32 request, at the top of the first restart.
type cancelOnThirdErr struct {
	context.Context
	calls *atomic.Int32
}

func (c cancelOnThirdErr) Err() error {
	if c.calls.Add(1) >= 3 {
		return context.Canceled
	}
	return nil
}

// TestF32CancelOnRestartKeepsCorrections: an attempt that repaired a C flip
// and then met an operand fault is discarded, but its repair happened and
// every return of the restart loop reports it, the cancelled one included.
func TestF32CancelOnRestartKeepsCorrections(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	req := Request{Kernel: "gemm", N: 64, Dtype: "f32", Faults: 2, Seed: 6}
	whole, err := s.Do(context.Background(), req)
	if err != nil || whole.Outcome != "restarted" || whole.Corrections == 0 {
		t.Fatalf("the request does not repair and then restart: %+v, %v", whole, err)
	}
	before := s.Metrics().ABFTCorrections.Value()
	cut, err := s.Do(cancelOnThirdErr{context.Background(), new(atomic.Int32)}, req)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Outcome != "aborted" || cut.Restarts != 1 || !strings.Contains(cut.Error, "context canceled") {
		t.Fatalf("cancelled at the restart: %+v", cut)
	}
	if cut.Corrections != whole.Corrections {
		t.Errorf("cancelled request reports %d corrections, its first attempt made %d", cut.Corrections, whole.Corrections)
	}
	if got := s.Metrics().ABFTCorrections.Value() - before; got != int64(whole.Corrections) {
		t.Errorf("abft_corrections grew by %d, want %d", got, whole.Corrections)
	}
}

// warmAllocation serves req (seeds varying) on an idle service until the
// free lists are full and returns the heap bytes one further request
// allocates. The kernels run serially, as cmd/abftbench's workers run them
// (Parallelism 1): above that, every parallel kernel call adds its band
// goroutines, and the reading would depend on the host's core count.
func warmAllocation(t *testing.T, req Request) uint64 {
	t.Helper()
	defer mat.SetParallelism(mat.SetParallelism(1))
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	ctx := context.Background()
	serve := func(n int) {
		for i := 0; i < n; i++ {
			req.Seed++
			if resp, err := s.Do(ctx, req); err != nil || resp.Outcome != "corrected" || resp.Injected != req.Faults {
				t.Fatalf("%+v, %v", resp, err)
			}
		}
	}
	return warmBytesPerCall(func() { serve(1) })
}

// warmBytesPerCall calls f four times to fill the free lists and returns the
// heap bytes a further call allocates: the median of twenty, so that a call
// charged for something no request owns (a runtime-internal table growing,
// a background goroutine's allocation landing in the window) does not
// decide the figure.
func warmBytesPerCall(f func()) uint64 {
	const warmup, runs = 4, 20
	for i := 0; i < warmup; i++ {
		f()
	}
	per := make([]uint64, runs)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	return per[runs/2]
}

// TestWarmGEMMAllocationBudget: a warm n=128 fused GEMM request used to
// allocate 1.16 MB (three encoded matrices, two throw-away operands, a
// checkpoint shadow and the oracle's reference); with the arena what is
// left was the per-request machine model and bookkeeping, about 40 KiB, with
// the node recycled too, bookkeeping alone, about 11 KB, and with the node
// keeping its kernel objects, coordinator and checkpointer and the job
// recycled, 176 B: the workload, and the dispatcher's batch and executor
// goroutine. With the request run on its caller's goroutine, 120 B is left.
// The budget (256 B: the reading plus 136 B) fails before the job (176 B),
// the coordinator and checkpointer (0.6 KB) or the kernel object (1.1 KB)
// could be built per request again.
func TestWarmGEMMAllocationBudget(t *testing.T) {
	per := warmAllocation(t, Request{Kernel: "gemm", N: 128, VerifyMode: "fused"})
	t.Logf("warm n=128 fused gemm request: %d B allocated", per)
	if per >= 256 {
		t.Errorf("warm n=128 fused gemm request allocates %d B, budget is 256 B", per)
	}
}

// TestWarmGEMM32AllocationBudget: a warm n=192 f32 request used to allocate
// 504 KB (A, B and C at 144 KiB each, eight n-sized float64 vectors); with
// the arena what is left is bookkeeping, about 6 KB, and with the job
// recycled and the kernel serial about 1.3 KB, most of it the kernel object
// with its matrix headers and two panel views per k-panel (twelve at
// K=192). The service keeps its GEMM32s and each keeps those headers
// (GEMM32.Reset): 80 B was left, and 24 B once the request ran on its
// caller's goroutine rather than a dispatcher's batch on an executor
// goroutine. The budget (128 B: the reading plus 104 B) fails before the
// kernel object, its panel views or the job could be built per request
// again.
func TestWarmGEMM32AllocationBudget(t *testing.T) {
	per := warmAllocation(t, Request{Kernel: "gemm", N: 192, Dtype: "f32"})
	t.Logf("warm n=192 f32 gemm request: %d B allocated", per)
	if per >= 128 {
		t.Errorf("warm n=192 f32 gemm request allocates %d B, budget is 128 B", per)
	}
}

// TestWarmLadderAllocationBudget: a functional node used to be built per
// request, and a warm n=64 product allocated 20 KB clean (page maps,
// allocations, a DRAM bank table nobody reads) and 131 KB once a fault armed
// the hierarchy (its line arrays, 102 KiB). A recycled node cost none of
// that, and what a warm request still allocated was the ladder's object
// graph: the kernel object, its views and matrix headers, the OS's
// allocation records, the Env closures, the coordinator and the
// checkpointer, 3.5 KB for a notified product and 5.0 KB for a Cholesky
// factorization, plus the job (0.6 KB). The node keeps that graph and the
// job is recycled, and the request runs on its caller's goroutine: a clean
// product allocates 120 B (its workload), a Cholesky factorization 536 B
// (its workload carries the checkpoint set and the reference header), and a
// faulted product adds the injection plan, the inject target list and a
// fault-table entry, 536 B (568 B under -race). Each budget (256 B, 768 B
// and 768 B: the reading plus 136 B, 232 B and 200 B) fails before the
// coordinator and the checkpointer (0.6 KB) or the kernel object (1.1 KB)
// could be rebuilt per request again, and far before the node.
func TestWarmLadderAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		req    Request
		budget uint64
	}{
		{"clean n=64 notified gemm", Request{Kernel: "gemm", N: 64, VerifyMode: "notified"}, 256},
		{"clean n=64 cholesky", Request{Kernel: "cholesky", N: 64}, 768},
		// One single-bit flip under chipkill: armed hierarchy, hardware
		// correction, outcome corrected whatever the seed.
		{"faulted n=64 gemm", Request{Kernel: "gemm", N: 64, Strategy: "W_CK", Faults: 1, FaultKind: "single-bit"}, 768},
	} {
		per := warmAllocation(t, c.req)
		t.Logf("warm %s request: %d B allocated", c.name, per)
		if per >= c.budget {
			t.Errorf("warm %s request allocates %d B, budget is %d B", c.name, per, c.budget)
		}
	}
}

// TestWarmCGAllocationBudget: a warm 24×24 CG request (ladder_f64_mix's)
// used to allocate about 20 KB, two thirds of it the stencil's row pointers
// and column indices (13.4 KB), built per request; they come from the arena
// now, and with the node keeping the solver object, the coordinator and the
// checkpointer and the job recycled, and the request on its caller's
// goroutine, what is left is the workload and the operator's header, 328 B.
// The budget (512 B: the reading plus 184 B) fails before the job (176 B),
// the coordinator and the checkpointer (0.6 KB) or the solver object
// (0.9 KB) could be built per request again.
func TestWarmCGAllocationBudget(t *testing.T) {
	per := warmAllocation(t, Request{Kernel: "cg", NX: 24, NY: 24})
	t.Logf("warm 24x24 cg request: %d B allocated", per)
	if per >= 512 {
		t.Errorf("warm 24x24 cg request allocates %d B, budget is 512 B", per)
	}
}

// TestWarmWorkerSurvivesGC: a worker's working set — its functional node,
// the arena buffers and packing panels of every size it serves, its
// bookkeeping lists — outlives garbage collection. One request of each
// ladder_f64_mix kind and an n=192 f32 product warm it; two collections
// run, as they do whenever a request size is rarer than the GC cycle; the
// same five again must allocate what warm requests allocate, about 30 KB,
// not the buffers (one n=128 request's arena is about 1 MiB, one packing
// panel 1 MiB) or the node (18 KB) over again.
func TestWarmWorkerSurvivesGC(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	ctx := context.Background()
	five := []Request{
		{Kernel: "gemm", N: 128, VerifyMode: "fused", Seed: 1},
		{Kernel: "gemm", N: 128, VerifyMode: "notified", Seed: 2},
		{Kernel: "cholesky", N: 128, Seed: 3},
		{Kernel: "cg", NX: 24, NY: 24, Seed: 4},
		{Kernel: "gemm", N: 192, Dtype: "f32", Seed: 5},
	}
	serve := func() {
		for _, req := range five {
			if resp, err := s.Do(ctx, req); err != nil || resp.Outcome != "corrected" {
				t.Fatalf("%+v: %+v, %v", req, resp, err)
			}
		}
	}
	serve()
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve()
	runtime.ReadMemStats(&after)
	per := after.TotalAlloc - before.TotalAlloc
	t.Logf("five requests after two collections: %d B allocated", per)
	if per >= 128<<10 {
		t.Errorf("five requests after two collections allocate %d B, budget is 128 KiB", per)
	}
}

// TestWarmVerifyAllocationBudget: a verify task's operands come from the
// task-scoped arena and it carries two projections, not the product, so a
// warm one allocates its probe vectors (the random probe, the ones vector
// and four matvec results, n values each) and little else: under 16
// n-vectors (8 KiB at n=64, a quarter of one n² matrix). The task's values
// are the caller's.
func TestWarmVerifyAllocationBudget(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	ctx := context.Background()
	const n = 64
	resp, err := s.Do(ctx, Request{Kernel: "gemm", N: n, Seed: 9, Integrity: "verify-vote"})
	if err != nil || resp.Outcome != "corrected" {
		t.Fatalf("%+v, %v", resp, err)
	}
	task := verifyTask(t, n, 9, 10, resp.Answer)
	per := warmBytesPerCall(func() {
		if res, err := s.DoVerify(ctx, task); err != nil || !res.OK {
			t.Fatalf("%+v, %v", res, err)
		}
	})
	t.Logf("warm n=%d verify task: %d B allocated", n, per)
	if per >= 16*8*n {
		t.Errorf("warm n=%d verify task allocates %d B, as much as 16 n-vectors (%d B)", n, per, 16*8*n)
	}
}

// replyDiscard is a ResponseWriter that keeps one header map and drops the
// body it is written, so that a handler's own allocation is all a reading
// of it shows.
type replyDiscard struct {
	h      http.Header
	status int
	n      int
}

func (w *replyDiscard) Header() http.Header         { return w.h }
func (w *replyDiscard) WriteHeader(status int)      { w.status = status }
func (w *replyDiscard) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestWarmHandlerAllocationBudget: one f32 n=16 request through
// NewHandler — the body decoded, Do, the reply encoded — the wire
// workload's worker half without the sockets. The request and its Response
// used to escape to the heap per request (the Request decoded through an
// interface, the Response boxed for the encoder), with the body's limit
// reader, the encoder and the dispatcher's goroutine and batch beside them:
// 840 B. The handler decodes into and encodes from a recycled exchange now,
// the body keeps its limit reader and encoder, and the request runs on the
// handler's goroutine: what is left, 280 B, is encoding/json's decoder
// state and the reply's two header values. The budget (384 B, the reading
// plus a third) fails before the Request (184 B) or the Response (280 B)
// could escape again.
func TestWarmHandlerAllocationBudget(t *testing.T) {
	defer mat.SetParallelism(mat.SetParallelism(1))
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	h := NewHandler(s)
	body := []byte(`{"n":16,"dtype":"f32","seed":9}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/gemm", rd)
	w := &replyDiscard{h: make(http.Header)}
	per := warmBytesPerCall(func() {
		rd.Reset(body)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n == 0 {
			t.Fatalf("status %d, %d body bytes", w.status, w.n)
		}
	})
	t.Logf("warm f32 n=16 request through the handler: %d B allocated", per)
	if per >= 384 {
		t.Errorf("warm f32 n=16 request through the handler allocates %d B, budget is 384 B", per)
	}
}
