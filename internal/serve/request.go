package serve

import (
	"errors"
	"fmt"
	"strings"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/core"
)

// ErrBadRequest reports a request the service refuses to admit: unknown
// kernel or strategy, out-of-range problem size, or an unparseable fault
// spec. The HTTP layer maps it to 400.
var ErrBadRequest = errors.New("serve: bad request")

// Kernel identifies which ABFT workload a request runs.
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

// String returns the wire name (the /v1/<kernel> path component).
func (k Kernel) String() string {
	switch k {
	case KernelGEMM:
		return "gemm"
	case KernelCholesky:
		return "cholesky"
	case KernelCG:
		return "cg"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Valid reports whether k is one of the served kernels.
func (k Kernel) Valid() bool { return k >= KernelGEMM && k <= KernelCG }

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

// Kernels lists the served kernels in wire order.
var Kernels = []Kernel{KernelGEMM, KernelCholesky, KernelCG}

// Dtype selects the arithmetic precision a request runs at.
type Dtype int

const (
	// DtypeF64 is the classic double-precision path through the recovery
	// coordinator (the default).
	DtypeF64 Dtype = iota
	// DtypeF32 is the mixed-precision path: float32 data and arithmetic,
	// float64 checksums, variance-adaptive detection thresholds. Serving-
	// native: gemm-only, fused verify only, integrity none.
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

// ParseKernel maps a wire name to its Kernel.
func ParseKernel(name string) (Kernel, error) {
	for _, k := range Kernels {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown kernel %q (want one of %v)", ErrBadRequest, name, Kernels)
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
	// VerifyMode is full|notified|fused (default notified). Fused selects
	// the kernel-resident online checks and is gemm-only — requests pairing
	// it with another kernel are rejected at admission.
	VerifyMode string `json:"verify_mode,omitempty"`
	// Integrity is none|vote|verify-vote (default none). Non-none modes
	// buy Byzantine answer coverage at the cluster gateway: the request is
	// replicated across distinct nodes and delivered only on an output-
	// signature majority. Verify-vote is gemm-only — requests pairing it
	// with another kernel are rejected at admission, mirroring the fused
	// verify-mode rule. A bare node accepts non-none integrity too (it
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
	// with variance-adaptive thresholds: gemm-only, fused verify only,
	// integrity none — other combinations are rejected at admission.
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
	if p.Kernel == KernelCG {
		return p.NX * p.NY
	}
	return p.N
}

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
	p.N = r.N
	if p.N == 0 {
		p.N = 64
	}
	switch p.Kernel {
	case KernelGEMM, KernelCholesky:
		if p.N < 8 || p.N > l.MaxN {
			return p, fmt.Errorf("%w: n=%d outside [8, %d]", ErrBadRequest, p.N, l.MaxN)
		}
	case KernelCG:
		p.NX, p.NY = r.NX, r.NY
		if p.NX == 0 {
			p.NX = 16
		}
		if p.NY == 0 {
			p.NY = 16
		}
		// NX > area/NY is NX·NY > area without forming the product, which
		// wraps for sides near 2³² and would admit a grid of area 0.
		area := l.MaxN * l.MaxN / 16
		if p.NX < 4 || p.NY < 4 || p.NX > area/p.NY {
			return p, fmt.Errorf("%w: cg grid %dx%d outside [4x4, area %d]",
				ErrBadRequest, p.NX, p.NY, area)
		}
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
	if p.Mode == abft.FusedVerify && p.Kernel != KernelGEMM {
		return p, fmt.Errorf("%w: verify mode %q requires kernel gemm, got %q",
			ErrBadRequest, p.Mode, p.Kernel)
	}
	if p.Integrity, err = ParseIntegrity(r.Integrity); err != nil {
		return p, err
	}
	if p.Integrity == IntegrityVerifyVote && p.Kernel != KernelGEMM {
		return p, fmt.Errorf("%w: integrity %q replicates the gemm checksum pass and requires kernel gemm, got %q",
			ErrBadRequest, p.Integrity, p.Kernel)
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
	if p.Dtype == DtypeF32 {
		// The mixed-precision path is serving-native: it runs outside the
		// simulated-memory coordinator, so only the combinations its own
		// machinery covers are admitted.
		if p.Kernel != KernelGEMM {
			return p, fmt.Errorf("%w: dtype f32 requires kernel gemm, got %q", ErrBadRequest, p.Kernel)
		}
		if p.Integrity != IntegrityNone {
			return p, fmt.Errorf("%w: dtype f32 does not support integrity %q (answer voting is f64-only)",
				ErrBadRequest, p.Integrity)
		}
		if r.VerifyMode == "" {
			p.Mode = abft.FusedVerify // online ABFT is the f32 path's only verifier
		} else if p.Mode != abft.FusedVerify {
			return p, fmt.Errorf("%w: dtype f32 requires verify mode %q, got %q",
				ErrBadRequest, abft.FusedVerify, p.Mode)
		}
	}
	return p, nil
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
