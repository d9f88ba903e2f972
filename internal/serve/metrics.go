package serve

import (
	"expvar"
	"sync"
	"time"
)

// Metrics is the service's observability surface: plain expvar counters,
// usable unregistered (tests, benchmarks) and exported through /debug/vars
// once Publish is called (the daemon). All fields are safe for concurrent
// use.
type Metrics struct {
	// Admission.
	Accepted      expvar.Int // requests admitted into the queue
	Rejected      expvar.Int // all overload rejections (429s), QoS-typed or not
	Throttled     expvar.Int // tenant-over-quota rejections (429 kind throttled)
	Shed          expvar.Int // speculative requests sacrificed (429 kind shed)
	QueueTimeouts expvar.Int // typed ErrQueueTimeout expiries
	BadRequests   expvar.Int // normalization failures
	QueueDepth    expvar.Int // gauge: requests currently queued
	Running       expvar.Int // gauge: requests currently executing
	// Inflight gauges admitted-but-undelivered requests (queued + running
	// + batched-but-not-yet-classified); with QueueCap it is the
	// backpressure signal a cluster gateway's health probe reads.
	Inflight expvar.Int
	// QueueCap is the configured admission queue depth (static; set by New
	// so probes can turn QueueDepth into a fill fraction).
	QueueCap expvar.Int

	// Batching.
	Batches         expvar.Int // execution batches dispatched
	BatchedRequests expvar.Int // requests that shared a batch of size > 1

	// Outcome taxonomy (sums to Accepted minus queue timeouts, eventually).
	Corrected expvar.Int
	Restarted expvar.Int
	Aborted   expvar.Int

	// Ladder traffic.
	InjectedFaults  expvar.Int // faults delivered by request plans
	ABFTCorrections expvar.Int // elements ABFT repaired
	Restarts        expvar.Int // checkpoint rollbacks replayed
	// SimArmed counts f64 requests and long tasks whose cache hierarchy was
	// armed at least once. The hierarchy stays dormant until a delivered
	// injection, so this equals the number of such requests with at least
	// one injected fault; any other reading is a bug.
	SimArmed expvar.Int

	// Latency sums (milliseconds), for coarse rate math over /debug/vars;
	// percentile reporting lives in the load generator.
	QueueMSSum expvar.Float
	RunMSSum   expvar.Float

	// Side routes: sharded-job block tasks (/v1/block), replicated
	// verification tasks (/v1/verify, verify-vote) and long tasks
	// (/v1/longjob). One ledger shape, exported as block_*, verify_*, long_*.
	Block  RouteMetrics
	Verify RouteMetrics
	Long   RouteMetrics

	// Checkpoint streaming (long tasks).
	CheckpointsStreamed expvar.Int // snapshots successfully PUT off-node
	CheckpointPutErrors expvar.Int // failed checkpoint PUTs (non-fatal)

	// Verification verdicts and the Byzantine chaos fixture.
	VerifyRefuted expvar.Int // claimed products this node refuted
	ByzantineLies expvar.Int // answers this node deliberately corrupted (LieFraction fixture)

	// bus, when set by New, surfaces error-bus counters in Snapshot.
	bus *Bus

	// Per-tenant counters, created lazily on first touch.
	tenantMu sync.Mutex
	tenants  map[string]*TenantMetrics
}

// RouteMetrics is one side route's task ledger.
type RouteMetrics struct {
	Tasks    expvar.Int   // tasks run to a result
	Rejected expvar.Int   // malformed tasks (400s)
	Shed     expvar.Int   // tasks that found no slot in budget (503s)
	RunMSSum expvar.Float // execution time sum (milliseconds)
}

// done counts one task run since start and returns its duration in
// milliseconds.
func (r *RouteMetrics) done(start time.Time) float64 {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	r.Tasks.Add(1)
	r.RunMSSum.Add(ms)
	return ms
}

// snapshot writes the ledger under prefix_tasks, prefix_rejected, ….
func (r *RouteMetrics) snapshot(out map[string]any, prefix string) {
	out[prefix+"_tasks"] = r.Tasks.Value()
	out[prefix+"_rejected"] = r.Rejected.Value()
	out[prefix+"_shed"] = r.Shed.Value()
	out[prefix+"_run_ms_sum"] = r.RunMSSum.Value()
}

// TenantMetrics is one tenant's admission ledger: how much of its traffic
// completed, was throttled at its own bucket, or was shed to overload.
type TenantMetrics struct {
	Completed expvar.Int
	Throttled expvar.Int
	Shed      expvar.Int
}

// maxTenantLedgers bounds the per-tenant map: the tenant name is the
// client's to choose, so without a cap the map is the client's to grow.
const maxTenantLedgers = 1024

// otherTenants is the ledger every tenant first seen after the cap shares.
// A client may name itself "_other"; it then counts there too.
const otherTenants = "_other"

// Tenant returns (creating on first use) the named tenant's counters. The
// first maxTenantLedgers names get a ledger each; later ones are counted
// together under otherTenants, so totals stay exact and memory bounded.
func (m *Metrics) Tenant(name string) *TenantMetrics {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if m.tenants == nil {
		m.tenants = make(map[string]*TenantMetrics)
	}
	tm, ok := m.tenants[name]
	if !ok && len(m.tenants) >= maxTenantLedgers {
		name = otherTenants
		tm, ok = m.tenants[name]
	}
	if !ok {
		tm = &TenantMetrics{}
		m.tenants[name] = tm
	}
	return tm
}

var publishOnce sync.Once

// Publish registers the metrics under the "serve" expvar key. Safe to call
// more than once; only the first caller's Metrics instance is exported.
func (m *Metrics) Publish() {
	publishOnce.Do(func() {
		expvar.Publish("serve", expvar.Func(func() any { return m.Snapshot() }))
	})
}

// Snapshot renders the counters as a flat map (the /debug/vars payload).
func (m *Metrics) Snapshot() map[string]any {
	out := map[string]any{
		"accepted":         m.Accepted.Value(),
		"rejected":         m.Rejected.Value(),
		"throttled":        m.Throttled.Value(),
		"shed":             m.Shed.Value(),
		"queue_timeouts":   m.QueueTimeouts.Value(),
		"bad_requests":     m.BadRequests.Value(),
		"queue_depth":      m.QueueDepth.Value(),
		"running":          m.Running.Value(),
		"inflight":         m.Inflight.Value(),
		"queue_cap":        m.QueueCap.Value(),
		"batches":          m.Batches.Value(),
		"batched_requests": m.BatchedRequests.Value(),
		"corrected":        m.Corrected.Value(),
		"restarted":        m.Restarted.Value(),
		"aborted":          m.Aborted.Value(),
		"injected_faults":  m.InjectedFaults.Value(),
		"abft_corrections": m.ABFTCorrections.Value(),
		"restarts":         m.Restarts.Value(),
		"sim_armed":        m.SimArmed.Value(),
		"queue_ms_sum":     m.QueueMSSum.Value(),
		"run_ms_sum":       m.RunMSSum.Value(),
	}
	m.Block.snapshot(out, "block")
	m.Verify.snapshot(out, "verify")
	m.Long.snapshot(out, "long")
	out["verify_refuted"] = m.VerifyRefuted.Value()
	out["byzantine_lies"] = m.ByzantineLies.Value()
	out["checkpoints_streamed"] = m.CheckpointsStreamed.Value()
	out["checkpoint_put_errors"] = m.CheckpointPutErrors.Value()
	if m.bus != nil {
		out["events_published"] = m.bus.Published()
		out["events_dropped"] = m.bus.Dropped()
	}
	m.tenantMu.Lock()
	if len(m.tenants) > 0 {
		tenants := make(map[string]any, len(m.tenants))
		for name, tm := range m.tenants {
			tenants[name] = map[string]any{
				"completed": tm.Completed.Value(),
				"throttled": tm.Throttled.Value(),
				"shed":      tm.Shed.Value(),
			}
		}
		out["tenants"] = tenants
	}
	m.tenantMu.Unlock()
	return out
}
