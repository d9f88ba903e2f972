package serve

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// okOutcomes is the ladder's terminal taxonomy: every classified response
// must carry one of these, or the service leaked an unverified result.
var okOutcomes = map[string]bool{"corrected": true, "restarted": true, "aborted": true}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// TestOutcomeTaxonomyConcurrent is the headline contract under -race:
// concurrent fault-injected requests across kernels and ECC strategies all
// terminate in an oracle-gated outcome — zero wrong answers, zero panics —
// and the expvar counters reconcile with the responses.
func TestOutcomeTaxonomyConcurrent(t *testing.T) {
	s := newTestService(t, Config{
		MaxConcurrency: 4,
		QueueDepth:     64,
		QueueTimeout:   time.Minute,
	})

	reqs := []Request{
		{Kernel: "gemm", N: 48, Strategy: "W_CK", Seed: 11, Faults: 1},
		{Kernel: "gemm", N: 48, Strategy: "P_CK+No_ECC", Seed: 12, Faults: 2, FaultKind: "chip-failure"},
		{Kernel: "gemm", N: 64, Strategy: "P_CK+P_SD", Seed: 13, Faults: 1, FaultKind: "double-bit"},
		{Kernel: "gemm", N: 48, Seed: 14},
		{Kernel: "cholesky", N: 32, Strategy: "W_SD", Seed: 15, Faults: 1},
		{Kernel: "cholesky", N: 32, Strategy: "P_SD+No_ECC", Seed: 16, Faults: 2, FaultKind: "scattered"},
		{Kernel: "cholesky", N: 48, Seed: 17},
		{Kernel: "cg", NX: 8, NY: 8, Strategy: "No_ECC", Seed: 18, Faults: 1},
		{Kernel: "cg", NX: 8, NY: 8, Strategy: "W_CK", Seed: 19},
	}
	const rounds = 3

	var wg sync.WaitGroup
	resps := make([]Response, len(reqs)*rounds)
	errs := make([]error, len(reqs)*rounds)
	for round := 0; round < rounds; round++ {
		for i, req := range reqs {
			wg.Add(1)
			go func(slot int, req Request, seedBump uint64) {
				defer wg.Done()
				req.Seed += seedBump * 100
				resps[slot], errs[slot] = s.Do(context.Background(), req)
			}(round*len(reqs)+i, req, uint64(round))
		}
	}
	wg.Wait()

	var injectedReqs int64
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: unexpected error %v", i, err)
		}
		r := resps[i]
		if !okOutcomes[r.Outcome] {
			t.Fatalf("request %d: outcome %q outside the ladder taxonomy (resp %+v)", i, r.Outcome, r)
		}
		if r.Outcome == "aborted" && r.Error == "" {
			t.Errorf("request %d: aborted without a reason", i)
		}
		if r.Injected > 0 {
			injectedReqs++
		}
	}

	m := s.m
	// The hierarchy leaves dormancy exactly on requests that had a fault
	// delivered.
	if got := m.SimArmed.Value(); got != injectedReqs || got != m.Snapshot()["sim_armed"] {
		t.Errorf("sim_armed = %d (snapshot %v), want %d injected requests", got, m.Snapshot()["sim_armed"], injectedReqs)
	}
	total := int64(len(reqs) * rounds)
	if got := m.Accepted.Value(); got != total {
		t.Errorf("accepted = %d, want %d", got, total)
	}
	if got := m.Corrected.Value() + m.Restarted.Value() + m.Aborted.Value(); got != total {
		t.Errorf("classified = %d, want %d", got, total)
	}
	if m.QueueDepth.Value() != 0 || m.Running.Value() != 0 {
		t.Errorf("residual load: depth=%d running=%d", m.QueueDepth.Value(), m.Running.Value())
	}
}

// TestFaultFreeIsCorrected pins the quiet path: no injected faults means
// Corrected with zero ladder traffic, for every kernel.
func TestFaultFreeIsCorrected(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 8})
	for _, req := range []Request{
		{Kernel: "gemm", N: 32, Seed: 5},
		{Kernel: "cholesky", N: 32, Seed: 6},
		{Kernel: "cg", NX: 8, NY: 8, Seed: 7},
	} {
		resp, err := s.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", req.Kernel, err)
		}
		if resp.Outcome != "corrected" || resp.Restarts != 0 || resp.Injected != 0 {
			t.Errorf("%s: fault-free run got %+v", req.Kernel, resp)
		}
		if resp.BatchSize != 1 {
			t.Errorf("%s: batch size %d without batching enabled", req.Kernel, resp.BatchSize)
		}
	}
	if got := s.m.SimArmed.Value(); got != 0 {
		t.Errorf("sim_armed = %d after a fault-free burst: a clean request armed its hierarchy", got)
	}
}

// TestDeterministicReplay: same seed, same request → same classification
// and same fault/correction counts, the serving analogue of the soak
// determinism contract.
func TestDeterministicReplay(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4})
	req := Request{Kernel: "gemm", N: 48, Strategy: "P_CK+No_ECC", Seed: 42, Faults: 2, FaultKind: "chip-failure"}
	first, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := s.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if again.Outcome != first.Outcome || again.Injected != first.Injected ||
			again.Corrections != first.Corrections || again.Restarts != first.Restarts {
			t.Fatalf("replay %d diverged: first %+v, again %+v", i, first, again)
		}
	}
}

// TestOverloadRejection fills every concurrency slot by hand, stuffs the
// queue, and asserts the next request is shed with ErrOverloaded — typed,
// immediate, no queue collapse.
func TestOverloadRejection(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 2, QueueTimeout: time.Minute})
	// Occupy the only execution slot so nothing drains the queue.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			<-start
			_, err := s.Do(ctx, Request{Kernel: "gemm", N: 16, Seed: seed})
			results <- err
		}(uint64(i))
	}
	close(start)

	// Rejections are synchronous; the accepted requests stay parked in the
	// queue (depth 2), so collect until a lull.
	overloaded := 0
collect:
	for overloaded < 8 {
		select {
		case err := <-results:
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("unexpected result while stalled: %v", err)
			}
			overloaded++
		case <-time.After(500 * time.Millisecond):
			break collect
		}
	}
	if overloaded < 6 {
		t.Fatalf("only %d of 8 requests were shed with queue depth 2", overloaded)
	}
	if got := s.m.Rejected.Value(); int(got) < overloaded {
		t.Errorf("rejected counter %d, want >= %d", got, overloaded)
	}
	cancel() // release the parked waiters as queue timeouts
	wg.Wait()
}

// TestQueueTimeout parks a request behind a blocked semaphore with a short
// deadline and asserts the typed ErrQueueTimeout path.
func TestQueueTimeout(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := s.Do(ctx, Request{Kernel: "gemm", N: 16, Seed: 1})
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if got := s.m.QueueTimeouts.Value(); got != 1 {
		t.Errorf("queue timeout counter = %d, want 1", got)
	}
}

// TestBatchingCoalesces sends compatible small GEMMs inside one batch
// window and asserts they shared an execution batch.
func TestBatchingCoalesces(t *testing.T) {
	s := newTestService(t, Config{
		MaxConcurrency: 1,
		QueueDepth:     16,
		BatchWindow:    300 * time.Millisecond,
		MaxBatch:       4,
	})
	const n = 4
	var wg sync.WaitGroup
	resps := make([]Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			resps[i], err = s.Do(context.Background(),
				Request{Kernel: "gemm", N: 32, Seed: uint64(i)})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	batched := 0
	for _, r := range resps {
		if r.BatchSize > 1 {
			batched++
		}
	}
	if batched == 0 {
		t.Fatalf("no request shared a batch: %+v", resps)
	}
	if got := s.m.BatchedRequests.Value(); got == 0 {
		t.Error("BatchedRequests counter stayed zero")
	}
}

// TestBatchingKeepsIncompatibleApart: different strategies must not share
// a batch even inside one window.
func TestBatchingKeepsIncompatibleApart(t *testing.T) {
	a := Parsed{Kernel: KernelGEMM, N: 32, Strategy: DefaultStrategy}
	b := a
	b.Strategy = 0 // No_ECC
	if compatible(a, b) {
		t.Error("different strategies reported compatible")
	}
	c := a
	c.N = 64
	if compatible(a, c) {
		t.Error("different sizes reported compatible")
	}
	d := a
	d.Kernel = KernelCholesky
	if compatible(a, d) || compatible(d, d) {
		t.Error("non-GEMM kernels must never batch")
	}
	if !compatible(a, a) {
		t.Error("identical GEMM shapes must batch")
	}
}

// TestBadRequests walks the validation surface.
func TestBadRequests(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 2})
	for _, req := range []Request{
		{Kernel: "fft", N: 32},
		{Kernel: "gemm", N: 4},
		{Kernel: "gemm", N: 100000},
		{Kernel: "gemm", N: 32, Strategy: "TripleModular"},
		{Kernel: "gemm", N: 32, Faults: 99},
		{Kernel: "gemm", N: 32, Faults: 1, FaultKind: "gamma-ray"},
		{Kernel: "cg", NX: 1, NY: 1},
	} {
		if _, err := s.Do(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%+v: err = %v, want ErrBadRequest", req, err)
		}
	}
	if got := s.m.BadRequests.Value(); got != 7 {
		t.Errorf("bad request counter = %d, want 7", got)
	}
}

// TestCloseRejectsNewWork: after Close, Do fails fast with ErrClosed.
func TestCloseRejectsNewWork(t *testing.T) {
	s := New(Config{MaxConcurrency: 1, QueueDepth: 2})
	s.Close()
	if _, err := s.Do(context.Background(), Request{Kernel: "gemm", N: 16}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestSnapshotCoversCounters keeps the /debug/vars payload in sync with
// the Metrics struct.
func TestSnapshotCoversCounters(t *testing.T) {
	var m Metrics
	m.Accepted.Add(3)
	m.RunMSSum.Add(1.5)
	snap := m.Snapshot()
	if snap["accepted"] != int64(3) {
		t.Errorf("snapshot accepted = %v", snap["accepted"])
	}
	if snap["run_ms_sum"] != 1.5 {
		t.Errorf("snapshot run_ms_sum = %v", snap["run_ms_sum"])
	}
	for k, v := range snap {
		switch v.(type) {
		case int64, float64:
		default:
			t.Errorf("snapshot[%q] has non-numeric type %T", k, v)
		}
	}
}

// TestSnapshotKeySet pins the /debug/vars names a running service exports,
// its tenant ledgers' included: dashboards and the wiring smoke read them.
func TestSnapshotKeySet(t *testing.T) {
	s := New(Config{MaxConcurrency: 1})
	defer s.Close()
	if _, err := s.Do(context.Background(), Request{Kernel: "gemm", N: 16, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	const want = "abft_corrections aborted accepted bad_requests batched_requests batches " +
		"block_rejected block_run_ms_sum block_shed block_tasks byzantine_lies checkpoint_put_errors " +
		"checkpoints_streamed corrected events_dropped events_published inflight injected_faults " +
		"long_rejected long_run_ms_sum long_shed long_tasks queue_cap queue_depth queue_ms_sum " +
		"queue_timeouts rejected restarted restarts run_ms_sum running shed sim_armed tenants " +
		"throttled verify_refuted verify_rejected verify_run_ms_sum verify_shed verify_tasks"
	if got := sortedKeys(snap); got != want {
		t.Errorf("snapshot keys\n got  %s\n want %s", got, want)
	}
	ledger, _ := snap["tenants"].(map[string]any)[DefaultTenant].(map[string]any)
	if got := sortedKeys(ledger); got != "completed shed throttled" {
		t.Errorf("tenant ledger keys %q", got)
	}
}

// sortedKeys lists a map's keys in order, space-separated.
func sortedKeys(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestKernelParse pins the wire names.
func TestKernelParse(t *testing.T) {
	for _, k := range Kernels {
		got, err := ParseKernel(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKernel(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKernel("fft"); !errors.Is(err, ErrBadRequest) {
		t.Errorf("ParseKernel(fft) err = %v, want ErrBadRequest", err)
	}
	if got := Kernel(9).String(); got != "Kernel(9)" {
		t.Errorf("Kernel(9).String() = %q", got)
	}
}

// TestF32RequestRules pins the mixed-precision admission contract: f32 is
// gemm-only, implies the fused verify mode, excludes the integrity tier,
// and a valid request echoes its dtype on the classified response.
func TestF32RequestRules(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 8})
	for _, req := range []Request{
		{Kernel: "cholesky", N: 32, Dtype: "f32"},
		{Kernel: "cg", NX: 8, NY: 8, Dtype: "f32"},
		{Kernel: "gemm", N: 32, Dtype: "f32", VerifyMode: "notified"},
		{Kernel: "gemm", N: 32, Dtype: "f32", VerifyMode: "full"},
		{Kernel: "gemm", N: 32, Dtype: "f32", Integrity: "vote"},
		{Kernel: "gemm", N: 32, Dtype: "f16"},
	} {
		if _, err := s.Do(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%+v: err = %v, want ErrBadRequest", req, err)
		}
	}

	// Clean f32 run: dtype echoed, outcome classified.
	resp, err := s.Do(context.Background(), Request{Kernel: "gemm", N: 32, Dtype: "f32", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Dtype != "f32" || !okOutcomes[resp.Outcome] {
		t.Fatalf("resp dtype %q outcome %q", resp.Dtype, resp.Outcome)
	}
	// Fault-injected f32 run: the ladder still never delivers an
	// unclassified answer, and the injection is visible.
	resp, err = s.Do(context.Background(), Request{
		Kernel: "gemm", N: 48, Dtype: "f32", Seed: 9, Faults: 2, FaultKind: "single-bit",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !okOutcomes[resp.Outcome] {
		t.Fatalf("faulted f32 outcome %q", resp.Outcome)
	}
	if resp.Injected == 0 {
		t.Error("faulted f32 run reports zero injected faults")
	}
	// f64 responses must not grow a dtype field (wire compatibility).
	resp, err = s.Do(context.Background(), Request{Kernel: "gemm", N: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Dtype != "" {
		t.Errorf("f64 response carries dtype %q", resp.Dtype)
	}
}

// TestTenantAndPriorityParsing pins the QoS wire fields: tenant charset
// enforcement, explicit priority parsing, and the W_*-speculative /
// P_*-protected default derived from the ECC class.
func TestTenantAndPriorityParsing(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 8})
	for _, req := range []Request{
		{Kernel: "gemm", N: 32, Tenant: "no spaces"},
		{Kernel: "gemm", N: 32, Tenant: "sl/ash"},
		{Kernel: "gemm", N: 32, Priority: "urgent"},
	} {
		if _, err := s.Do(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%+v: err = %v, want ErrBadRequest", req, err)
		}
	}
	resp, err := s.Do(context.Background(), Request{Kernel: "gemm", N: 32, Tenant: "team-a.prod_1", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "team-a.prod_1" {
		t.Errorf("tenant echo %q", resp.Tenant)
	}

	// Priority defaults follow the ECC class split.
	for _, tc := range []struct {
		strat, name string
		want        Priority
	}{
		{"w_ck", "", PrioritySpeculative},
		{"p_ck+p_sd", "", PriorityProtected},
		{"w_ck", "protected", PriorityProtected},
		{"p_ck+p_sd", "speculative", PrioritySpeculative},
	} {
		p, err := ParseRequest(Limits{MaxN: 256, MaxFaults: 8}, Request{Kernel: "gemm", N: 32, Strategy: tc.strat, Priority: tc.name})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if p.Priority != tc.want {
			t.Errorf("strategy %s priority %q => %v, want %v", tc.strat, tc.name, p.Priority, tc.want)
		}
	}
}

// TestTenantLedgersBounded: the tenant name is the client's to choose. A
// million distinct ones must not leave a million ledgers behind; the early
// ones keep theirs, the rest are counted together, and nothing is lost from
// the total.
func TestTenantLedgersBounded(t *testing.T) {
	var m Metrics
	m.Tenant("gold").Completed.Add(3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const tenants = 1_000_000
	for i := 0; i < tenants; i++ {
		m.Tenant("t" + strconv.Itoa(i)).Completed.Add(1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 512<<10 {
		t.Errorf("heap grew %d KiB over %d distinct tenants", grown>>10, tenants)
	}
	m.Tenant("gold").Completed.Add(1)
	ledgers := m.Snapshot()["tenants"].(map[string]any)
	if len(ledgers) != maxLedgers+1 {
		t.Errorf("%d ledgers, want the first %d tenants plus %q", len(ledgers), maxLedgers, otherLedger)
	}
	var total int64
	for _, l := range ledgers {
		total += l.(map[string]any)["completed"].(int64)
	}
	if gold := ledgers["gold"].(map[string]any)["completed"]; gold != int64(4) || total != tenants+4 {
		t.Errorf("gold completed %v (want 4), all ledgers %d (want %d)", gold, total, tenants+4)
	}
	if other := ledgers[otherLedger].(map[string]any)["completed"]; other != int64(tenants-maxLedgers+1) {
		t.Errorf("%s completed %v, want %d", otherLedger, other, tenants-maxLedgers+1)
	}
}
