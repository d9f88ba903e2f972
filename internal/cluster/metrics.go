package cluster

import (
	"expvar"
	"sync"

	"coopabft/internal/serve"
)

// Metrics is the gateway's observability surface: cluster-wide counters
// plus a per-node breakdown, all plain expvar values safe for concurrent
// use and exported under the "cluster" key once Publish is called. Each
// field's /debug/vars key is its var tag (see serve.Vars).
type Metrics struct {
	// Request path.
	Requests  expvar.Int `var:"requests"`  // requests entering the gateway
	Delivered expvar.Int `var:"delivered"` // classified answers returned to clients
	Retries   expvar.Int `var:"retries"`   // failover forwards after a failed attempt

	// Terminal client-visible failures.
	BadRequests expvar.Int `var:"bad_requests"` // 400s (gateway parse or node validation)
	Overloaded  expvar.Int `var:"overloaded"`   // every eligible replica shed or window-full
	Throttled   expvar.Int `var:"throttled"`    // tenant-over-quota rejections at the gateway door
	Unavailable expvar.Int `var:"unavailable"`  // retries exhausted on connection failures/503s
	NoNodes     expvar.Int `var:"no_nodes"`     // no node advertises the requested strategy

	// Cluster-wide outcome taxonomy (sums over delivered answers).
	Corrected expvar.Int `var:"corrected"`
	Restarted expvar.Int `var:"restarted"`
	Aborted   expvar.Int `var:"aborted"`

	// Async jobs (the /v1/jobs surface).
	JobsSubmitted   expvar.Int `var:"jobs_submitted"`   // jobs admitted
	JobsCompleted   expvar.Int `var:"jobs_completed"`   // jobs that reached "done"
	JobsFailed      expvar.Int `var:"jobs_failed"`      // jobs that reached "failed"
	JobsCancelled   expvar.Int `var:"jobs_cancelled"`   // jobs that reached "cancelled"
	JobsPassthrough expvar.Int `var:"jobs_passthrough"` // jobs forwarded whole (below shard threshold)

	// Sharded execution.
	BlockTasksDispatched expvar.Int `var:"block_tasks_dispatched"` // block tasks delivered by workers
	ChecksumTasks        expvar.Int `var:"checksum_tasks"`         // of those, dedicated checksum-block tasks
	// Reconstructions counts blocks recovered algebraically from checksum
	// blocks after a node loss; BlockRecomputes counts the last-resort
	// re-executions when reconstruction was impossible. The kill-mid-job
	// chaos gate requires Reconstructions >= 1 with BlockRecomputes == 0.
	Reconstructions expvar.Int `var:"reconstructions"`
	BlockRecomputes expvar.Int `var:"block_recomputes"`

	// Long jobs (step-granular CG solves) and the error bus.
	JobsLong expvar.Int `var:"jobs_long"` // jobs dispatched on the long path
	// Migrations counts long-job reschedules onto a new node after a
	// worker died mid-solve; the SIGKILL-mid-CG chaos gate requires
	// Migrations >= 1 with zero wrong answers.
	Migrations        expvar.Int   `var:"migrations"`
	CheckpointsStored expvar.Int   `var:"checkpoints_stored"` // checkpoint PUTs accepted and retained
	CheckpointsStale  expvar.Int   `var:"checkpoints_stale"`  // checkpoint PUTs discarded (old epoch or step)
	EventsRelayed     expvar.Int   `var:"events_relayed"`     // node events re-published on the gateway bus
	NodeDeaths        expvar.Int   `var:"node_deaths"`        // established event streams that dropped
	RecoveryMSSum     expvar.Float `var:"recovery_ms_sum"`    // fault→resumed latency summed over migrations

	// Integrity tier (replica voting).
	VotesTotal expvar.Int `var:"votes_total"` // vote/verify-vote elections decided (delivered or typed-aborted)
	// QuorumFail counts elections that could not deliver: ballots split or
	// lost below the majority bar, or a primary refuted by its verifiers.
	// The lying-node CI gate requires this to stay 0 while a Byzantine
	// minority is outvoted.
	QuorumFail          expvar.Int `var:"quorum_fail"`
	VerifyVoteCheapHits expvar.Int `var:"verify_vote_cheap_hits"` // O(n²) verification passes that stood in for full replicas
	SuspectsTotal       expvar.Int `var:"suspects_total"`         // minority ballots charged to nodes across all elections
	SuspectTrips        expvar.Int `var:"suspect_trips"`          // breaker trips caused by accumulated suspects

	// bus, when set by New, surfaces gateway error-bus counters.
	bus *serve.Bus

	nodes serve.Ledgers[NodeMetrics]
}

// NodeMetrics is one backend's breakdown.
type NodeMetrics struct {
	Forwarded       expvar.Int `var:"forwarded"`        // attempts sent to this node
	Delivered       expvar.Int `var:"delivered"`        // classified answers it returned
	TransportErrors expvar.Int `var:"transport_errors"` // connection-level failures
	Rejected429     expvar.Int `var:"rejected_429"`     // node-side sheds (alive but full)
	Failed503       expvar.Int `var:"failed_503"`       // node-side queue timeouts / closing
	WindowSkips     expvar.Int `var:"window_skips"`     // placements skipped: outstanding window full
	BreakerSkips    expvar.Int `var:"breaker_skips"`    // placements skipped: breaker open
	BreakerTrips    expvar.Int `var:"breaker_trips"`    // times this node's breaker opened
	Inflight        expvar.Int `var:"inflight"`         // gauge: outstanding requests on this node
	Healthy         expvar.Int `var:"healthy"`          // gauge (0/1): last probe verdict; New starts it at 1
	QueueDepth      expvar.Int `var:"queue_depth"`      // gauge: node-reported queue depth (probe)
	Suspects        expvar.Int `var:"suspects"`         // vote elections this node lost
	SuspectTrips    expvar.Int `var:"suspect_trips"`    // breaker trips from accumulated suspects
}

// Node returns (lazily creating) the per-node metrics for id.
func (m *Metrics) Node(id string) *NodeMetrics { return m.nodes.Get(id) }

var publishOnce sync.Once

// Publish registers the metrics under the "cluster" expvar key. Safe to
// call more than once; only the first caller's instance is exported.
func (m *Metrics) Publish() {
	publishOnce.Do(func() {
		expvar.Publish("cluster", expvar.Func(func() any { return m.Snapshot() }))
	})
}

// Snapshot renders the counters as a nested map (the /debug/vars payload):
// the per-node ledgers under "nodes", and each node's suspects again under
// "suspects_per_node".
func (m *Metrics) Snapshot() map[string]any {
	snap := serve.Vars(m)
	m.bus.AddVars(snap)
	snap["nodes"] = m.nodes.Snapshot()
	perNode := map[string]any{}
	m.nodes.Each(func(id string, nm *NodeMetrics) { perNode[id] = nm.Suspects.Value() })
	snap["suspects_per_node"] = perNode
	return snap
}
