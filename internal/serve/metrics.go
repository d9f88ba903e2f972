package serve

import (
	"expvar"
	"sync"
	"time"
)

// Metrics is the service's observability surface: plain expvar counters,
// usable unregistered (tests, benchmarks) and exported through /debug/vars
// once Publish is called (the daemon). All fields are safe for concurrent
// use; each one's /debug/vars key is its var tag (see Vars).
type Metrics struct {
	// Admission. Every admitted request ends exactly one way, so
	// accepted = corrected + restarted + aborted + queue_timeouts + evicted
	// + closed-after-admission, where evicted counts the queued speculative
	// requests a protected arrival pushed out (in shed, not in rejected);
	// long tasks bypass admission but add to the outcome counts as well.
	Accepted      expvar.Int `var:"accepted"`       // requests admitted into the queue
	Rejected      expvar.Int `var:"rejected"`       // 429s at the door, QoS-typed or not; evictions are not counted here
	Throttled     expvar.Int `var:"throttled"`      // tenant-over-quota rejections (429 kind throttled)
	Shed          expvar.Int `var:"shed"`           // speculative requests sacrificed at the door or evicted from the queue (429 kind shed)
	QueueTimeouts expvar.Int `var:"queue_timeouts"` // typed ErrQueueTimeout expiries
	BadRequests   expvar.Int `var:"bad_requests"`   // normalization failures
	QueueDepth    expvar.Int `var:"queue_depth"`    // gauge: requests currently queued
	Running       expvar.Int `var:"running"`        // gauge: requests currently executing
	// Inflight gauges admitted-but-undelivered requests (queued + running
	// + batched-but-not-yet-classified). The worker's /healthz reports it
	// beside QueueDepth and QueueCap; a gateway's probe reads only the
	// queue depth.
	Inflight expvar.Int `var:"inflight"`
	// QueueCap is the configured admission queue depth (static; set by New
	// so probes can turn QueueDepth into a fill fraction).
	QueueCap expvar.Int `var:"queue_cap"`

	// Batching.
	Batches         expvar.Int `var:"batches"`          // execution batches dispatched
	BatchedRequests expvar.Int `var:"batched_requests"` // requests that shared a batch of size > 1

	// Outcome taxonomy (see the admission identity above).
	Corrected expvar.Int `var:"corrected"`
	Restarted expvar.Int `var:"restarted"`
	Aborted   expvar.Int `var:"aborted"`

	// Ladder traffic.
	InjectedFaults  expvar.Int `var:"injected_faults"`  // faults delivered by request plans
	ABFTCorrections expvar.Int `var:"abft_corrections"` // elements ABFT repaired
	Restarts        expvar.Int `var:"restarts"`         // checkpoint rollbacks replayed
	// SimArmed counts f64 requests and long tasks whose cache hierarchy was
	// armed at least once. The hierarchy stays dormant until a delivered
	// injection, so this equals the number of such requests with at least
	// one injected fault; any other reading is a bug.
	SimArmed expvar.Int `var:"sim_armed"`

	// Latency sums (milliseconds), for coarse rate math over /debug/vars;
	// percentile reporting lives in the load generator.
	QueueMSSum expvar.Float `var:"queue_ms_sum"`
	RunMSSum   expvar.Float `var:"run_ms_sum"`

	// Side routes: sharded-job block tasks (/v1/block), replicated
	// verification tasks (/v1/verify, verify-vote) and long tasks
	// (/v1/longjob). One ledger shape, exported as block_*, verify_*, long_*.
	Block  RouteMetrics `var:"block_"`
	Verify RouteMetrics `var:"verify_"`
	Long   RouteMetrics `var:"long_"`

	// Checkpoint streaming (long tasks).
	CheckpointsStreamed expvar.Int `var:"checkpoints_streamed"`  // snapshots successfully PUT off-node
	CheckpointPutErrors expvar.Int `var:"checkpoint_put_errors"` // failed checkpoint PUTs (non-fatal)

	// Verification verdicts and the Byzantine chaos fixture.
	VerifyRefuted expvar.Int `var:"verify_refuted"` // claimed products this node refuted
	ByzantineLies expvar.Int `var:"byzantine_lies"` // answers this node deliberately corrupted (LieFraction fixture)

	// bus, when set by New, surfaces error-bus counters in Snapshot.
	bus *Bus

	tenants Ledgers[TenantMetrics]
}

// RouteMetrics is one side route's task ledger.
type RouteMetrics struct {
	Tasks    expvar.Int   `var:"tasks"`      // tasks run to a result
	Rejected expvar.Int   `var:"rejected"`   // malformed tasks (400s)
	Shed     expvar.Int   `var:"shed"`       // tasks that found no slot in budget (503s)
	RunMSSum expvar.Float `var:"run_ms_sum"` // execution time sum (milliseconds)
}

// done counts one task run since start and returns its duration in
// milliseconds.
func (r *RouteMetrics) done(start time.Time) float64 {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	r.Tasks.Add(1)
	r.RunMSSum.Add(ms)
	return ms
}

// TenantMetrics is one tenant's admission ledger: how much of its traffic
// completed, was throttled at its own bucket, or was shed to overload.
type TenantMetrics struct {
	Completed expvar.Int `var:"completed"`
	Throttled expvar.Int `var:"throttled"`
	Shed      expvar.Int `var:"shed"`
}

// Tenant returns (creating on first use) the named tenant's counters; past
// the family's cap, new names share one ledger (see Ledgers).
func (m *Metrics) Tenant(name string) *TenantMetrics { return m.tenants.Get(name) }

var publishOnce sync.Once

// Publish registers the metrics under the "serve" expvar key. Safe to call
// more than once; only the first caller's Metrics instance is exported.
func (m *Metrics) Publish() {
	publishOnce.Do(func() {
		expvar.Publish("serve", expvar.Func(func() any { return m.Snapshot() }))
	})
}

// Snapshot renders the counters as a flat map (the /debug/vars payload),
// with the tenant ledgers under "tenants" once there are any.
func (m *Metrics) Snapshot() map[string]any {
	out := Vars(m)
	m.bus.AddVars(out)
	if tenants := m.tenants.Snapshot(); len(tenants) > 0 {
		out["tenants"] = tenants
	}
	return out
}
