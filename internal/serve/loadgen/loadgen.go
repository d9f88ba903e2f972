// Package loadgen is the open-loop load generator for the serving
// subsystem: it sweeps request rate × kernel × ECC strategy × verify
// mode, fires
// requests on a fixed schedule without waiting for responses (so overload
// shows up as typed rejections, not as a self-throttling client), injects
// faults on a seeded fraction of requests, and reports per-cell latency
// percentiles plus the full outcome taxonomy. Request seeds derive from
// (campaign seed, global request index), so a sweep is replayable.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/serve"
)

// Doer abstracts the target: the in-process *serve.Service, or HTTPClient
// against a live abftd.
type Doer interface {
	Do(ctx context.Context, req serve.Request) (serve.Response, error)
}

// Config describes one sweep. Cells are the cross product
// Rates × Kernels × Strategies, run sequentially; requests within a cell
// are fired open-loop at the cell's rate for Duration.
type Config struct {
	Seed     uint64
	Duration time.Duration // per-cell send window (default 2s)
	Timeout  time.Duration // per-request budget (default 5s)

	// Requests, when > 0, sends exactly that many requests per cell
	// (still paced at the cell's rate) instead of sending for Duration —
	// the replayable fixed-count mode. With a fixed request count the
	// whole sweep is a pure function of Seed, which is what the cluster
	// determinism gate compares bit-for-bit against a direct daemon.
	Requests int

	Rates      []float64 // requests/second (default {25})
	Kernels    []serve.Kernel
	Strategies []core.Strategy
	// Modes, Integrities and Dtypes are the verify-mode, integrity-tier and
	// element-type sweep axes (defaults {NotifiedVerify}, {IntegrityNone},
	// {DtypeF64}). A coordinate admission refuses (serve.Kernel.Admits) is
	// skipped rather than sent, so a sweep never manufactures 400s.
	Modes       []abft.VerifyMode
	Integrities []serve.Integrity
	Dtypes      []serve.Dtype
	// Replicas is the vote width R stamped on non-none integrity requests
	// (0 defers to the gateway default).
	Replicas int
	// ForbidNodes lists node IDs that must never deliver an answer — the
	// lying-node assertion: a Byzantine replica may vote, but if its ballot
	// ever wins an election the sweep records a ForbiddenNode hit, which
	// the gates treat like a wrong answer.
	ForbidNodes []string
	// Tenants, when non-empty, turns every cell into a concurrent
	// multi-tenant flood: each spec fires its own open-loop stream at its
	// own rate, stamped with its name and priority class, and the cell
	// reports per-tenant tallies alongside the aggregate. This is how the
	// QoS gates observe that a flooding tenant is throttled and shed while
	// a protected tenant inside its quota keeps completing.
	Tenants []TenantSpec

	// N sizes gemm/cholesky requests (default 48); NX, NY size CG.
	N, NX, NY int

	// FaultFraction of requests carry an injection plan of Faults errors
	// of FaultKind; selection is seeded per request, not random.
	FaultFraction float64
	Faults        int // default 1
	FaultKind     bifit.Kind
}

// TenantSpec is one synthetic tenant in a multi-tenant sweep.
type TenantSpec struct {
	Name     string
	Priority serve.Priority
	// Rate is this tenant's own open-loop send rate in req/s; 0 inherits
	// the cell rate. Set it above the server's -tenant-rate to make the
	// tenant a deliberate quota violator.
	Rate float64
}

func (c *Config) defaults() {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{25}
	}
	if len(c.Kernels) == 0 {
		c.Kernels = []serve.Kernel{serve.KernelGEMM}
	}
	if len(c.Strategies) == 0 {
		c.Strategies = []core.Strategy{serve.DefaultStrategy}
	}
	if len(c.Modes) == 0 {
		c.Modes = []abft.VerifyMode{abft.NotifiedVerify}
	}
	if len(c.Integrities) == 0 {
		c.Integrities = []serve.Integrity{serve.IntegrityNone}
	}
	if len(c.Dtypes) == 0 {
		c.Dtypes = []serve.Dtype{serve.DtypeF64}
	}
	if c.N <= 0 {
		c.N = 48
	}
	if c.NX <= 0 {
		c.NX = 8
	}
	if c.NY <= 0 {
		c.NY = 8
	}
	if c.Faults <= 0 {
		c.Faults = 1
	}
}

// Cell is one sweep coordinate.
type Cell struct {
	Rate      float64
	Kernel    serve.Kernel
	Strategy  core.Strategy
	Mode      abft.VerifyMode
	Integrity serve.Integrity
	Dtype     serve.Dtype
}

// Outcomes tallies the terminal classification of every request sent.
type Outcomes struct {
	Corrected    int // ladder finished in place
	Restarted    int // ladder rolled back, replay verified
	Aborted      int // ladder gave up explicitly
	Overloaded   int // untyped admission rejection (429 kind "overloaded")
	Throttled    int // tenant over its own quota (429 kind "throttled")
	Shed         int // speculative work sacrificed to overload (429 kind "shed")
	QueueTimeout int // admitted but expired in queue (503)
	Errors       int // transport/internal failures
	// Unclassified counts completed responses whose outcome is outside
	// the ladder taxonomy — wrong answers. Must always be zero.
	Unclassified int
	// Retried counts completed responses a cluster gateway delivered
	// after failing over from at least one replica (gw_retries > 0).
	// Always zero against a bare daemon.
	Retried int
	// Voted counts completed responses delivered through the integrity
	// tier (vote_replicas > 0).
	Voted int
	// NoQuorum counts delivered aborts that carry a vote tally below
	// quorum — the integrity tier's typed "could not establish".
	NoQuorum int
	// ForbiddenNode counts completed responses whose delivering node is in
	// Config.ForbidNodes — a lying replica winning an election. Must
	// always be zero, like Unclassified.
	ForbiddenNode int
}

// CellResult is one cell's aggregate.
type CellResult struct {
	Cell
	Sent      int
	Completed int // requests that returned a classified Response
	Outcomes

	InjectedReqs  int // requests that carried an injection plan
	FaultsLanded  int // faults delivered by the service
	Corrections   int // ABFT element repairs
	Restarts      int // checkpoint rollbacks
	BatchedShare  float64
	ThroughputRPS float64 // Completed / wall

	// PerNode counts completed responses by the gateway-stamped node ID
	// (nil against a bare daemon) — the placement spread.
	PerNode map[string]int

	// Tenants holds each tenant's slice of the cell, keyed by tenant name
	// (nil unless Config.Tenants was set).
	Tenants map[string]*TenantStats

	P50, P95, P99, Max time.Duration
}

// TenantStats is one tenant's slice of a cell: its own outcome tallies and
// latency percentiles, the evidence the per-tenant QoS gates run on.
type TenantStats struct {
	Priority     serve.Priority
	Sent         int
	Completed    int
	Throttled    int
	Shed         int
	Overloaded   int
	QueueTimeout int
	Errors       int

	P50, P95, P99 time.Duration

	latencies []time.Duration
}

// Result is a full sweep.
type Result struct {
	Cfg   Config
	Cells []CellResult
	Wall  time.Duration
}

// Run executes the sweep. Only context cancellation aborts it early;
// per-request failures are data.
func Run(ctx context.Context, d Doer, cfg Config) (*Result, error) {
	cfg.defaults()
	start := time.Now()
	res := &Result{Cfg: cfg}
	reqIndex := uint64(0)
	for _, rate := range cfg.Rates {
		for _, kernel := range cfg.Kernels {
			for _, strat := range cfg.Strategies {
				for _, mode := range cfg.Modes {
					for _, integ := range cfg.Integrities {
						for _, dt := range cfg.Dtypes {
							if kernel.Admits(mode, integ, dt) != nil {
								continue // admission refuses the pairing: skip it, don't manufacture 400s
							}
							if err := ctx.Err(); err != nil {
								return res, err
							}
							cell := Cell{Rate: rate, Kernel: kernel, Strategy: strat, Mode: mode, Integrity: integ, Dtype: dt}
							cr, sent := runCell(ctx, d, cfg, cell, reqIndex)
							reqIndex += sent
							res.Cells = append(res.Cells, cr)
						}
					}
				}
			}
		}
	}
	res.Wall = time.Since(start)
	return res, nil
}

// runCell fires one cell's open-loop schedule and aggregates its
// results. Without Config.Tenants it is a single anonymous stream (the
// server's default tenant); with Tenants every spec fires its own
// concurrent stream at its own rate, so quota and shedding decisions
// interleave under real contention.
func runCell(ctx context.Context, d Doer, cfg Config, cell Cell, base uint64) (CellResult, uint64) {
	cellStart := time.Now()
	var (
		mu        sync.Mutex
		latencies []time.Duration
		cr        = CellResult{Cell: cell}
	)
	record := func(ts *TenantStats, lat time.Duration, resp serve.Response, err error) {
		mu.Lock()
		defer mu.Unlock()
		var throttle *serve.ThrottleError
		var shed *serve.ShedError
		switch {
		case err == nil:
			cr.Completed++
			latencies = append(latencies, lat)
			cr.FaultsLanded += resp.Injected
			cr.Corrections += resp.Corrections
			cr.Restarts += resp.Restarts
			if resp.BatchSize > 1 {
				cr.BatchedShare++ // normalized after the cell drains
			}
			if resp.GatewayRetries > 0 {
				cr.Retried++
			}
			if resp.VoteReplicas > 0 {
				cr.Voted++
				if resp.Outcome == "aborted" && resp.VoteAgree < (resp.VoteReplicas+2)/2 {
					cr.NoQuorum++
				}
			}
			if resp.Node != "" {
				for _, forbidden := range cfg.ForbidNodes {
					if resp.Node == forbidden {
						cr.ForbiddenNode++
					}
				}
				if cr.PerNode == nil {
					cr.PerNode = make(map[string]int)
				}
				cr.PerNode[resp.Node]++
			}
			switch resp.Outcome {
			case "corrected":
				cr.Corrected++
			case "restarted":
				cr.Restarted++
			case "aborted":
				cr.Aborted++
			default:
				cr.Unclassified++
			}
			if ts != nil {
				ts.Completed++
				ts.latencies = append(ts.latencies, lat)
			}
		case errors.As(err, &throttle):
			cr.Throttled++
			if ts != nil {
				ts.Throttled++
			}
		case errors.As(err, &shed):
			cr.Shed++
			if ts != nil {
				ts.Shed++
			}
		case errors.Is(err, serve.ErrOverloaded):
			cr.Overloaded++
			if ts != nil {
				ts.Overloaded++
			}
		case errors.Is(err, serve.ErrQueueTimeout):
			cr.QueueTimeout++
			if ts != nil {
				ts.QueueTimeout++
			}
		default:
			cr.Errors++
			if ts != nil {
				ts.Errors++
			}
		}
	}

	streams := cfg.Tenants
	if len(streams) == 0 {
		streams = []TenantSpec{{}} // one anonymous stream: the default tenant
	}
	var wg sync.WaitGroup
	sent := make([]uint64, len(streams))
	for i := range streams {
		tn := streams[i]
		var ts *TenantStats
		if tn.Name != "" {
			if cr.Tenants == nil {
				cr.Tenants = make(map[string]*TenantStats)
			}
			ts = &TenantStats{Priority: tn.Priority}
			cr.Tenants[tn.Name] = ts
		}
		wg.Add(1)
		go func(i int, tn TenantSpec, ts *TenantStats) {
			defer wg.Done()
			// Disjoint index lanes keep every tenant's request stream a
			// pure function of the sweep seed regardless of goroutine
			// interleaving.
			sent[i] = fireStream(ctx, d, cfg, cell, tn, ts, base+uint64(i)<<20, &mu, &cr, record)
		}(i, tn, ts)
	}
	wg.Wait()

	wall := time.Since(cellStart)
	if wall > 0 {
		cr.ThroughputRPS = float64(cr.Completed) / wall.Seconds()
	}
	if cr.Completed > 0 {
		cr.BatchedShare /= float64(cr.Completed)
	}
	cr.P50, cr.P95, cr.P99, cr.Max = percentiles(latencies)
	for _, ts := range cr.Tenants {
		ts.P50, ts.P95, ts.P99, _ = percentiles(ts.latencies)
		ts.latencies = nil
	}
	var total uint64
	for _, s := range sent {
		total += s
	}
	return cr, total
}

// fireStream sends one tenant's open-loop schedule for a cell, returning
// how many requests it fired. Tallies land in cr (and ts, when the stream
// is a named tenant) under mu via record.
func fireStream(ctx context.Context, d Doer, cfg Config, cell Cell, tn TenantSpec, ts *TenantStats, base uint64, mu *sync.Mutex, cr *CellResult, record func(*TenantStats, time.Duration, serve.Response, error)) uint64 {
	rate := tn.Rate
	if rate <= 0 {
		rate = cell.Rate
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	deadline := time.Now().Add(cfg.Duration)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	sent := uint64(0)
	// Fixed-count mode sends exactly cfg.Requests; the open-loop default
	// sends until the wall-clock window closes.
	more := func() bool {
		if cfg.Requests > 0 {
			return sent < uint64(cfg.Requests)
		}
		return time.Now().Before(deadline)
	}
	for more() && ctx.Err() == nil {
		seed := campaign.CellSeed(cfg.Seed, base+sent)
		req := serve.Request{
			Kernel:     cell.Kernel.String(),
			N:          cfg.N,
			NX:         cfg.NX,
			NY:         cfg.NY,
			Strategy:   cell.Strategy.String(),
			VerifyMode: cell.Mode.String(),
			Seed:       seed,
		}
		if cell.Dtype == serve.DtypeF32 {
			req.Dtype = cell.Dtype.String()
		}
		if tn.Name != "" {
			req.Tenant = tn.Name
			req.Priority = tn.Priority.String()
		}
		if cell.Integrity != serve.IntegrityNone {
			req.Integrity = cell.Integrity.String()
			req.Replicas = cfg.Replicas
		}
		// Seeded fault lottery: the decision is a pure function of the
		// request seed, so replays inject on the same requests.
		inject := cfg.FaultFraction > 0 &&
			float64(campaign.Splitmix64(seed))/float64(^uint64(0)) < cfg.FaultFraction
		if inject {
			req.Faults = cfg.Faults
			req.FaultKind = cfg.FaultKind.String()
		}
		mu.Lock()
		if inject {
			cr.InjectedReqs++
		}
		cr.Sent++
		if ts != nil {
			ts.Sent++
		}
		mu.Unlock()
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
			defer cancel()
			t0 := time.Now()
			resp, err := d.Do(rctx, req)
			record(ts, time.Since(t0), resp, err)
		}()
		select {
		case <-ticker.C:
		case <-ctx.Done():
		}
	}
	wg.Wait()
	return sent
}

// percentiles reports p50/p95/p99/max over completed-request latencies.
func percentiles(lat []time.Duration) (p50, p95, p99, max time.Duration) {
	if len(lat) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.95), at(0.99), sorted[len(sorted)-1]
}

// Totals sums the outcome taxonomy across cells.
func (r *Result) Totals() Outcomes {
	var t Outcomes
	for _, c := range r.Cells {
		t.Corrected += c.Corrected
		t.Restarted += c.Restarted
		t.Aborted += c.Aborted
		t.Overloaded += c.Overloaded
		t.Throttled += c.Throttled
		t.Shed += c.Shed
		t.QueueTimeout += c.QueueTimeout
		t.Errors += c.Errors
		t.Unclassified += c.Unclassified
		t.Retried += c.Retried
		t.Voted += c.Voted
		t.NoQuorum += c.NoQuorum
		t.ForbiddenNode += c.ForbiddenNode
	}
	return t
}

// Sent sums the requests fired across cells.
func (r *Result) Sent() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Sent
	}
	return n
}

// Completed sums the classified responses across cells.
func (r *Result) Completed() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Completed
	}
	return n
}

// PerNode aggregates the gateway-stamped placement spread across cells
// (empty against a bare daemon).
func (r *Result) PerNode() map[string]int {
	total := make(map[string]int)
	for _, c := range r.Cells {
		for id, n := range c.PerNode {
			total[id] += n
		}
	}
	return total
}

// TenantTotals sums every tenant's tallies across cells (latency
// percentiles stay per-cell; see CellResult.Tenants). This is what the
// per-tenant completion and shedding gates run on.
func (r *Result) TenantTotals() map[string]TenantStats {
	totals := make(map[string]TenantStats)
	for _, c := range r.Cells {
		for name, ts := range c.Tenants {
			t := totals[name]
			t.Priority = ts.Priority
			t.Sent += ts.Sent
			t.Completed += ts.Completed
			t.Throttled += ts.Throttled
			t.Shed += ts.Shed
			t.Overloaded += ts.Overloaded
			t.QueueTimeout += ts.QueueTimeout
			t.Errors += ts.Errors
			totals[name] = t
		}
	}
	return totals
}

// Table renders the sweep as the report the load generator prints.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving sweep: %d cells, seed %d, %s/cell, fault fraction %.2f\n",
		len(r.Cells), r.Cfg.Seed, r.Cfg.Duration, r.Cfg.FaultFraction)
	fmt.Fprintf(&b, "%-9s %-12s %-9s %-11s %-5s %6s %6s %6s %5s %5s %5s %5s %5s %5s %5s %4s %8s %8s %8s %8s\n",
		"kernel", "strategy", "verify", "integrity", "dtype", "rate", "sent", "done", "corr", "rst", "abrt", "429", "thr", "shed", "qto", "err",
		"p50", "p95", "p99", "rps")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-9s %-12s %-9s %-11s %-5s %6.1f %6d %6d %5d %5d %5d %5d %5d %5d %5d %4d %8s %8s %8s %8.1f\n",
			c.Kernel, c.Strategy, c.Mode, c.Integrity, c.Dtype, c.Rate, c.Sent, c.Completed,
			c.Corrected, c.Restarted, c.Aborted, c.Overloaded, c.Throttled, c.Shed, c.QueueTimeout, c.Errors,
			round(c.P50), round(c.P95), round(c.P99), c.ThroughputRPS)
		for _, name := range sortedTenants(c.Tenants) {
			ts := c.Tenants[name]
			fmt.Fprintf(&b, "  tenant %-12s %-11s sent %-5d done %-5d throttled %-5d shed %-5d 429 %-4d err %-3d p50 %-8s p95 %-8s p99 %-8s\n",
				name, ts.Priority, ts.Sent, ts.Completed, ts.Throttled, ts.Shed,
				ts.Overloaded, ts.QueueTimeout+ts.Errors,
				round(ts.P50), round(ts.P95), round(ts.P99))
		}
	}
	t := r.Totals()
	fmt.Fprintf(&b, "totals: corrected %d, restarted %d, aborted %d, overloaded %d, throttled %d, shed %d, queue-timeout %d, errors %d, unclassified %d, retried-elsewhere %d, voted %d, no-quorum %d, forbidden-node %d\n",
		t.Corrected, t.Restarted, t.Aborted, t.Overloaded, t.Throttled, t.Shed, t.QueueTimeout, t.Errors, t.Unclassified, t.Retried, t.Voted, t.NoQuorum, t.ForbiddenNode)
	if spread := r.PerNode(); len(spread) > 0 {
		ids := make([]string, 0, len(spread))
		for id := range spread {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		b.WriteString("node spread:")
		for _, id := range ids {
			fmt.Fprintf(&b, " %s=%d", id, spread[id])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sortedTenants returns the tenant names in stable order for rendering.
func sortedTenants(m map[string]*TenantStats) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func round(d time.Duration) time.Duration { return d.Round(100 * time.Microsecond) }
