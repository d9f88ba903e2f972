package serve

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/core"
	"coopabft/internal/recovery"
)

// ErrBadRequest reports a request the service refuses to admit: unknown
// kernel or strategy, out-of-range problem size, or an unparseable fault
// spec. The HTTP layer maps it to 400.
var ErrBadRequest = errors.New("serve: bad request")

// Kernel identifies which ABFT workload a request runs: its row in kernels.
type Kernel int

const (
	// KernelGEMM is FT-DGEMM — the only kernel the batching stage
	// coalesces, since small GEMMs dominate serving traffic.
	KernelGEMM Kernel = iota
	// KernelCholesky is FT-Cholesky; its unprotected workspace makes it
	// the Case-4-capable workload.
	KernelCholesky
	// KernelCG is FT-CG, the memory-bound iterative workload.
	KernelCG
)

// Kernels lists the served kernels in wire order.
var Kernels = []Kernel{KernelGEMM, KernelCholesky, KernelCG}

// kernelRow is all the service states about one served kernel: admission,
// execution, the side routes, the gateway's job routes and the load
// generator read it here (DESIGN.md §2.2 prints the table).
type kernelRow struct {
	wire       string            // the /v1/<kernel> path component
	grid       bool              // sized by a CG grid (sides ≥ 4, area ≤ MaxN²/16), not n in [8, MaxN]
	modes      []abft.VerifyMode // the verify modes its workload runs
	verifyVote bool              // verifiers re-check the shipped answer's checksums
	f32        bool              // the mixed-precision path (exec32.go)
	product    bool              // /v1/block, /v1/verify and sharded jobs
	long       bool              // /v1/longjob and long jobs
	build      func(rt *core.Runtime, p Parsed) (recovery.Workload, error)
}

var kernels = [...]kernelRow{
	KernelGEMM: {
		wire: "gemm", modes: []abft.VerifyMode{abft.FullVerify, abft.NotifiedVerify, abft.FusedVerify},
		verifyVote: true, f32: true, product: true,
		build: func(rt *core.Runtime, p Parsed) (recovery.Workload, error) {
			return recovery.NewDGEMMWorkload(rt, p.N, p.Seed, p.Mode)
		},
	},
	KernelCholesky: {
		wire: "cholesky", modes: []abft.VerifyMode{abft.NotifiedVerify},
		build: func(rt *core.Runtime, p Parsed) (recovery.Workload, error) {
			return recovery.NewCholeskyWorkload(rt, p.N, p.Seed)
		},
	},
	KernelCG: {
		wire: "cg", grid: true, modes: []abft.VerifyMode{abft.NotifiedVerify}, long: true,
		build: func(rt *core.Runtime, p Parsed) (recovery.Workload, error) {
			return recovery.NewCGWorkload(rt, p.NX, p.NY, p.Seed)
		},
	},
}

// row returns k's row; k is Valid (it comes from ParseKernel, or Admits checked it).
func (k Kernel) row() *kernelRow { return &kernels[k] }

// String returns the wire name (the /v1/<kernel> path component).
func (k Kernel) String() string {
	if !k.Valid() {
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
	return kernels[k].wire
}

// Valid reports whether k is one of the served kernels.
func (k Kernel) Valid() bool { return k >= 0 && int(k) < len(kernels) }

// Wire returns the route component for k, refusing invalid values: the
// String fallback ("Kernel(%d)") is a diagnostic label and must never be
// spliced into a URL path, so every route-construction site goes through
// Wire instead of String.
func (k Kernel) Wire() (string, error) {
	if !k.Valid() {
		return "", fmt.Errorf("%w: invalid kernel value %d", ErrBadRequest, int(k))
	}
	return k.String(), nil
}

// ParseKernel maps a wire name to its Kernel.
func ParseKernel(name string) (Kernel, error) {
	for k := range kernels {
		if strings.EqualFold(kernels[k].wire, name) {
			return Kernel(k), nil
		}
	}
	return 0, fmt.Errorf("%w: unknown kernel %q (want one of %v)", ErrBadRequest, name, Kernels)
}

// Admits is admission's pairing rule: nil when kernel k runs verify mode m
// under integrity i at dtype d, an ErrBadRequest otherwise. ParseRequest
// applies it after defaults; the load generator skips the cells it refuses.
// The f32 path runs outside the simulated-memory coordinator, so it pairs
// only with fused verification and no answer voting; f32 is checked first,
// since it sets the default mode, so its refusal names the dtype asked for.
func (k Kernel) Admits(m abft.VerifyMode, i Integrity, d Dtype) error {
	switch {
	case !k.Valid():
		return fmt.Errorf("%w: unknown kernel %v", ErrBadRequest, k)
	case d == DtypeF32 && (!k.row().f32 || i != IntegrityNone || m != abft.FusedVerify):
		return fmt.Errorf("%w: dtype f32 needs a kernel with an f32 path, verify mode %q and integrity %q; got %q, %q, %q",
			ErrBadRequest, abft.FusedVerify, IntegrityNone, k, m, i)
	case !slices.Contains(k.row().modes, m):
		return fmt.Errorf("%w: kernel %q does not run verify mode %q", ErrBadRequest, k, m)
	case i == IntegrityVerifyVote && !k.row().verifyVote:
		return fmt.Errorf("%w: integrity %q replicates a checksum pass kernel %q lacks", ErrBadRequest, i, k)
	}
	return nil
}

// Dtype selects the arithmetic precision a request runs at.
type Dtype int

const (
	// DtypeF64 is the classic double-precision path through the recovery
	// coordinator (the default).
	DtypeF64 Dtype = iota
	// DtypeF32 is the mixed-precision path: float32 data and arithmetic,
	// float64 checksums, variance-adaptive detection thresholds.
	DtypeF32
)

func (d Dtype) String() string {
	if d == DtypeF32 {
		return "f32"
	}
	return "f64"
}

// ParseDtype maps a wire dtype name to its Dtype; empty selects f64.
func ParseDtype(name string) (Dtype, error) {
	switch {
	case name == "" || strings.EqualFold(name, "f64"):
		return DtypeF64, nil
	case strings.EqualFold(name, "f32"):
		return DtypeF32, nil
	default:
		return 0, fmt.Errorf("%w: unknown dtype %q (want f64|f32)", ErrBadRequest, name)
	}
}

// Priority is the request's shed class under overload.
type Priority int

const (
	// PriorityProtected work is never evicted to make room for speculative
	// work and keeps its quota share under a flood.
	PriorityProtected Priority = iota
	// PrioritySpeculative work is shed first: evicted from the queue when a
	// protected request arrives at capacity, rejected outright when the
	// queue is full.
	PrioritySpeculative
)

func (p Priority) String() string {
	if p == PrioritySpeculative {
		return "speculative"
	}
	return "protected"
}

// ParsePriority resolves a wire priority name; empty derives the class from
// the ECC strategy — write-back (W_*) strategies tolerate rerun and default
// to speculative, partial-protection (P_*) strategies are user-facing and
// default to protected.
func ParsePriority(name string, strat core.Strategy) (Priority, error) {
	switch {
	case name == "":
		if strings.HasPrefix(strat.String(), "W_") {
			return PrioritySpeculative, nil
		}
		return PriorityProtected, nil
	case strings.EqualFold(name, "protected"):
		return PriorityProtected, nil
	case strings.EqualFold(name, "speculative"):
		return PrioritySpeculative, nil
	default:
		return 0, fmt.Errorf("%w: unknown priority %q (want protected|speculative)", ErrBadRequest, name)
	}
}

// DefaultTenant is the tenant requests without a tenant field bill to.
const DefaultTenant = "default"

// maxTenantLen bounds tenant names; they appear in metrics keys and logs.
const maxTenantLen = 64

// parseTenant validates a wire tenant name: [A-Za-z0-9._-], at most
// maxTenantLen; empty maps to DefaultTenant.
func parseTenant(name string) (string, error) {
	if name == "" {
		return DefaultTenant, nil
	}
	if len(name) > maxTenantLen {
		return "", fmt.Errorf("%w: tenant name longer than %d bytes", ErrBadRequest, maxTenantLen)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return "", fmt.Errorf("%w: tenant name %q has invalid character %q", ErrBadRequest, name, c)
		}
	}
	return name, nil
}

// parseKind maps a wire fault-kind name to its bifit.Kind.
func parseKind(name string) (bifit.Kind, error) {
	for _, k := range []bifit.Kind{bifit.SingleBit, bifit.DoubleBitSameWord, bifit.ChipFailure, bifit.Scattered} {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown fault kind %q", ErrBadRequest, name)
}

// Request is one unit of work, in its wire (JSON) form. Kernel and
// strategy arrive as strings and are resolved against core.Strategy during
// admission — the serving analogue of the paper's malloc_ecc flag: each
// request picks the ECC configuration its data runs under.
type Request struct {
	// Kernel is gemm|cholesky|cg. The HTTP layer sets it from the URL
	// path; in-process callers set it directly.
	Kernel string `json:"kernel,omitempty"`
	// N is the matrix dimension for gemm/cholesky (default 64).
	N int `json:"n,omitempty"`
	// NX, NY give the CG grid (defaults 16×16).
	NX int `json:"nx,omitempty"`
	NY int `json:"ny,omitempty"`
	// Strategy is the paper label (W_CK, P_CK+No_ECC, ...); empty selects
	// DefaultStrategy.
	Strategy string `json:"strategy,omitempty"`
	// Seed makes the request deterministic: problem data and any injected
	// faults derive from it.
	Seed uint64 `json:"seed"`
	// Faults asks the service to inject that many DRAM faults mid-run via
	// the bifit coordinator (chaos-in-production testing; capped at
	// MaxFaults).
	Faults int `json:"faults,omitempty"`
	// FaultKind is single-bit|double-bit|chip-failure|scattered (default
	// single-bit; only meaningful with Faults > 0).
	FaultKind string `json:"fault_kind,omitempty"`
	// TimeoutMS bounds the request end to end (queue wait + execution);
	// the deadline propagates into the kernel's step loop.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// VerifyMode is full|notified|fused (default notified, fused for f32).
	// Fused selects the kernel-resident online checks. Which kernels pair
	// with which verify mode, integrity and dtype is Kernel.Admits's rule.
	VerifyMode string `json:"verify_mode,omitempty"`
	// Integrity is none|vote|verify-vote (default none). Non-none modes
	// buy Byzantine answer coverage at the cluster gateway: the request is
	// replicated across distinct nodes and delivered only on an output-
	// signature majority. A bare node accepts non-none integrity too (it
	// computes the answer signature the gateway votes on).
	Integrity string `json:"integrity,omitempty"`
	// Replicas is the vote's R (distinct nodes asked for the same answer);
	// 0 defers to the gateway's configured default. Only meaningful with
	// Integrity != none; capped at MaxReplicas.
	Replicas int `json:"replicas,omitempty"`
	// Tenant is who this request bills to for quota, fair-queueing, and
	// shedding purposes ([A-Za-z0-9._-], ≤64 bytes; empty = "default").
	Tenant string `json:"tenant,omitempty"`
	// Priority is protected|speculative; empty derives from the strategy
	// (W_* write-back strategies are speculative, the rest protected).
	Priority string `json:"priority,omitempty"`
	// Dtype is f64|f32 (default f64). f32 selects the mixed-precision GEMM
	// with variance-adaptive thresholds.
	Dtype string `json:"dtype,omitempty"`
}

// DefaultStrategy is used when a request does not pick one: relax ABFT
// data to SECDED, keep chipkill elsewhere — the paper's headline ARE
// configuration.
const DefaultStrategy = core.PartialChipkillSECDED

// Limits bounds what ParseRequest admits. Every admission point — the
// daemon's Do, the cluster gateway, and the block-task path — builds its
// Limits from its own configuration but shares the validation logic and
// error taxonomy below, so a 400 means the same thing at every layer.
type Limits struct {
	// MaxN caps gemm/cholesky problem sizes; the CG grid area is capped
	// at MaxN²/16.
	MaxN int
	// MaxFaults caps per-request fault injection.
	MaxFaults int
}

// Limits derives the service's admission bounds from its configuration.
func (c Config) Limits() Limits { return Limits{MaxN: c.MaxN, MaxFaults: c.MaxFaults} }

// jobLimits bounds the block and long-task routes: sharded and long jobs may
// be much larger than interactive requests, so n and the CG grid area follow
// the job-size cap.
func (c Config) jobLimits() Limits { return Limits{MaxN: c.MaxJobN, MaxFaults: c.MaxFaults} }

// Parsed is the admitted, typed form of a Request — the output of
// ParseRequest, shared by the daemon, the cluster gateway, and the
// block-task path.
type Parsed struct {
	Kernel    Kernel
	N         int // gemm/cholesky dimension
	NX, NY    int // cg grid
	Strategy  core.Strategy
	Seed      uint64
	Faults    int
	Kind      bifit.Kind
	Mode      abft.VerifyMode
	Integrity Integrity
	Replicas  int // requested vote width R; 0 = caller default
	Tenant    string
	Priority  Priority
	Dtype     Dtype
}

// Size returns the user-facing problem size (n, or the CG grid area).
func (p Parsed) Size() int {
	if p.Kernel.row().grid {
		return p.NX * p.NY
	}
	return p.N
}

// Shards reports whether p may run as a sharded job once large enough, and
// RunsLong whether it runs as a long job: a product or long kernel at f64
// with no integrity tier, the only requests block and long tasks carry.
func (p Parsed) Shards() bool   { return p.Kernel.row().product && p.plain() }
func (p Parsed) RunsLong() bool { return p.Kernel.row().long && p.plain() }
func (p Parsed) plain() bool    { return p.Dtype == DtypeF64 && p.Integrity == IntegrityNone }

// ParseRequest is the single admission/validation entrypoint: it resolves
// a wire Request's string fields (kernel, strategy, fault kind), applies
// defaults, and bounds the problem size and fault count against l. Every
// failure wraps ErrBadRequest, so the 400 taxonomy is defined exactly once
// instead of being re-derived per handler.
func ParseRequest(l Limits, r Request) (Parsed, error) {
	var p Parsed
	var err error
	if p.Kernel, err = ParseKernel(r.Kernel); err != nil {
		return p, err
	}
	if p.Strategy = DefaultStrategy; r.Strategy != "" {
		s, err := core.ParseStrategy(r.Strategy)
		if err != nil {
			return p, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		p.Strategy = s
	}
	p.N = cmp.Or(r.N, 64)
	if p.Kernel.row().grid {
		p.NX, p.NY = cmp.Or(r.NX, 16), cmp.Or(r.NY, 16)
		// NX > area/NY is NX·NY > area without forming the product, which
		// wraps for sides near 2³² and would admit a grid of area 0.
		area := l.MaxN * l.MaxN / 16
		if p.NX < 4 || p.NY < 4 || p.NX > area/p.NY {
			return p, fmt.Errorf("%w: cg grid %dx%d outside [4x4, area %d]",
				ErrBadRequest, p.NX, p.NY, area)
		}
	} else if p.N < 8 || p.N > l.MaxN {
		return p, fmt.Errorf("%w: n=%d outside [8, %d]", ErrBadRequest, p.N, l.MaxN)
	}
	p.Seed = r.Seed
	p.Faults = r.Faults
	if p.Faults < 0 || p.Faults > l.MaxFaults {
		return p, fmt.Errorf("%w: faults=%d outside [0, %d]", ErrBadRequest, p.Faults, l.MaxFaults)
	}
	if p.Kind = bifit.SingleBit; r.FaultKind != "" {
		if p.Kind, err = parseKind(r.FaultKind); err != nil {
			return p, err
		}
	}
	if p.Mode = abft.NotifiedVerify; r.VerifyMode != "" {
		if p.Mode, err = abft.ParseVerifyMode(r.VerifyMode); err != nil {
			return p, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
	}
	if p.Integrity, err = ParseIntegrity(r.Integrity); err != nil {
		return p, err
	}
	p.Replicas = r.Replicas
	if p.Replicas < 0 || p.Replicas > MaxReplicas {
		return p, fmt.Errorf("%w: replicas=%d outside [0, %d]", ErrBadRequest, p.Replicas, MaxReplicas)
	}
	if p.Replicas != 0 && p.Integrity == IntegrityNone {
		return p, fmt.Errorf("%w: replicas=%d without an integrity mode (set integrity=vote|verify-vote)",
			ErrBadRequest, p.Replicas)
	}
	if p.Tenant, err = parseTenant(r.Tenant); err != nil {
		return p, err
	}
	if p.Priority, err = ParsePriority(r.Priority, p.Strategy); err != nil {
		return p, err
	}
	if p.Dtype, err = ParseDtype(r.Dtype); err != nil {
		return p, err
	}
	if p.Dtype == DtypeF32 && r.VerifyMode == "" {
		p.Mode = abft.FusedVerify // online ABFT is the f32 path's only verifier
	}
	return p, p.Kernel.Admits(p.Mode, p.Integrity, p.Dtype)
}

// Response reports one classified request. Outcome is always one of the
// ladder's three terminal labels — the service never returns an unverified
// result, so there is no "ok but unchecked" state.
type Response struct {
	Kernel   string `json:"kernel"`
	N        int    `json:"n"`
	Strategy string `json:"strategy"`
	// VerifyMode echoes the admitted verify mode (full|notified|fused).
	VerifyMode string `json:"verify_mode"`
	// Dtype echoes the precision for mixed-precision requests ("f32");
	// empty on the default f64 path.
	Dtype string `json:"dtype,omitempty"`
	// Tenant echoes who the request billed to.
	Tenant string `json:"tenant,omitempty"`
	// Outcome is corrected|restarted|aborted (recovery.Outcome.String).
	Outcome string `json:"outcome"`
	// Error says why an aborted run gave up (empty otherwise).
	Error string `json:"error,omitempty"`

	Injected     int `json:"injected"`
	HWCorrected  int `json:"hw_corrected"`
	Corrections  int `json:"abft_corrections"`
	Degradations int `json:"degradations"`
	Restarts     int `json:"restarts"`

	// BatchSize is how many requests shared this request's execution
	// batch (1 when it ran alone).
	BatchSize int     `json:"batch_size"`
	QueueMS   float64 `json:"queue_ms"`
	RunMS     float64 `json:"run_ms"`

	// Node and GatewayRetries are stamped by the cluster gateway on the
	// way back out (empty/zero when a daemon is hit directly): which
	// backend delivered this answer and how many placement attempts it
	// took. Retries happen only on connection failure or 503 — a delivered
	// classification is never re-executed.
	Node           string `json:"node,omitempty"`
	GatewayRetries int    `json:"gw_retries,omitempty"`

	// Integrity-tier fields, all absent on the integrity=none hot path.
	// Integrity echoes the admitted mode; AnswerSig is the node-computed
	// canonical output signature (abft.AnswerSig over the answer's
	// IEEE-754 bits) the gateway votes on; Answer carries the packed
	// output for verify-vote primaries (stripped by the gateway before
	// delivery; see Answer for who releases its buffer); VoteReplicas/VoteAgree are stamped by the gateway: how
	// many replicas answered and how many signed the delivered answer.
	Integrity    string `json:"integrity,omitempty"`
	AnswerSig    string `json:"answer_sig,omitempty"`
	Answer       Answer `json:"answer,omitempty"`
	VoteReplicas int    `json:"vote_replicas,omitempty"`
	VoteAgree    int    `json:"vote_agree,omitempty"`
}
