// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) from the simulator: Figure 3 (ABFT overhead breakdown),
// Table 1 (simplified verification), Table 3 (system parameters), Table 4
// (LLC-miss classification), Figures 5–7 (memory energy, system energy and
// performance under the six ECC strategies), Table 5 (FIT rates), Figures
// 8–9 (weak/strong scaling of energy benefit vs recovery cost) and Figure
// 10 (comparison with DGMS). Each experiment returns a typed result plus a
// text rendering with the same rows/series the paper reports.
//
// Every evaluation entry point is exposed twice: as a registered
// Experiment (see registry.go) dispatched by name with context,
// functional options and parallel fan-out through the campaign engine,
// and as the original Fig*/Table* functions, kept as thin deprecated
// wrappers.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/machine"
	"coopabft/internal/scaling"
)

// Typed errors returned by the Experiment API instead of panics or
// zero-value results.
var (
	// ErrUnknownKernel reports a KernelID outside the four workloads.
	ErrUnknownKernel = errors.New("experiments: unknown kernel")
	// ErrBadConfig reports invalid Options; the wrapping error names the
	// offending field.
	ErrBadConfig = errors.New("experiments: bad config")
	// ErrUnknownExperiment reports a Lookup of an unregistered name.
	ErrUnknownExperiment = errors.New("experiments: unknown experiment")
)

// KernelID selects one of the four ABFT workloads.
type KernelID int

const (
	// KDGEMM is FT-DGEMM.
	KDGEMM KernelID = iota
	// KCholesky is FT-Cholesky.
	KCholesky
	// KCG is FT-Pred-CG.
	KCG
	// KHPL is FT-HPL.
	KHPL
)

// AllKernels lists the workloads in the paper's order.
var AllKernels = []KernelID{KDGEMM, KCholesky, KCG, KHPL}

// String returns the paper's label.
func (k KernelID) String() string {
	switch k {
	case KDGEMM:
		return "FT-DGEMM"
	case KCholesky:
		return "FT-Cholesky"
	case KCG:
		return "FT-CG"
	case KHPL:
		return "FT-HPL"
	default:
		return "?"
	}
}

// Options sizes the workloads. The paper simulates 3000²/8192² matrices;
// these run scaled-down problems on a proportionally scaled L2 (see
// DESIGN.md) so the working-set-to-cache ratios are preserved. Options is
// comparable (no slices, no funcs) because the sweep cache keys on it.
type Options struct {
	DGEMMN     int
	CholN      int
	CGX, CGY   int
	CGIters    int
	HPLN       int
	HPLNB      int
	L2Divisor  int
	Seed       uint64
	ScalingCfg scaling.Config

	// Workers sizes the campaign engine's worker pool for the parallel
	// fan-outs; 0 selects runtime.NumCPU(). It never affects results —
	// per-cell seeding keeps parallel output bit-identical to serial.
	Workers int
	// CaseTrials is the Monte-Carlo budget per (scheme, family) cell of
	// the §4 case-frequency study.
	CaseTrials int
	// CapTrials is the trial budget per (kernel, error-count) cell of the
	// capability curves.
	CapTrials int
}

// Default returns the paperfigs/bench configuration.
func Default() Options {
	o := Options{
		DGEMMN: 224, CholN: 224,
		CGX: 96, CGY: 96, CGIters: 20,
		HPLN: 160, HPLNB: 8,
		L2Divisor:  32,
		Seed:       42,
		CaseTrials: 20000,
		CapTrials:  20,
	}
	o.ScalingCfg = scaling.DefaultConfig()
	o.ScalingCfg.GridX, o.ScalingCfg.GridY = 96, 96
	o.ScalingCfg.Iterations = 16
	return o
}

// Small returns a fast configuration for unit tests.
func Small() Options {
	o := Default()
	o.DGEMMN, o.CholN = 48, 64
	o.CGX, o.CGY, o.CGIters = 24, 24, 8
	o.HPLN, o.HPLNB = 32, 4
	o.ScalingCfg.GridX, o.ScalingCfg.GridY = 24, 24
	o.ScalingCfg.Iterations = 8
	o.CaseTrials = 5000
	o.CapTrials = 10
	return o
}

// Validate checks the option invariants; violations wrap ErrBadConfig.
func (o Options) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, args...))
	}
	if o.DGEMMN <= 0 || o.CholN <= 0 || o.HPLN <= 0 || o.HPLNB <= 0 {
		return fail("matrix sizes must be positive (DGEMM %d, Chol %d, HPL %d/%d)",
			o.DGEMMN, o.CholN, o.HPLN, o.HPLNB)
	}
	if o.HPLN%o.HPLNB != 0 {
		return fail("HPL N=%d must be a multiple of NB=%d", o.HPLN, o.HPLNB)
	}
	if o.CGX <= 0 || o.CGY <= 0 || o.CGIters <= 0 {
		return fail("CG grid %dx%d and iterations %d must be positive", o.CGX, o.CGY, o.CGIters)
	}
	if o.L2Divisor < 1 {
		return fail("L2 divisor %d must be >= 1", o.L2Divisor)
	}
	if o.Workers < 0 {
		return fail("workers %d must be >= 0", o.Workers)
	}
	if o.CaseTrials <= 0 || o.CapTrials <= 0 {
		return fail("trial budgets must be positive (cases %d, capability %d)", o.CaseTrials, o.CapTrials)
	}
	if err := o.machineConfig().Validate(); err != nil {
		return fail("machine: %v", err)
	}
	return nil
}

func (o Options) machineConfig() machine.Config {
	return machine.ScaledConfig(o.L2Divisor)
}

// engine builds the campaign engine an Options-driven fan-out runs on.
func (o Options) engine(progress campaign.ProgressFunc) *campaign.Engine {
	return campaign.New(campaign.WithWorkers(o.Workers), campaign.WithProgress(progress))
}

// runConfig couples the science options with per-run engine knobs that
// must not live in Options (Options is a cache key and stays comparable).
type runConfig struct {
	o        Options
	progress campaign.ProgressFunc
}

func (rc runConfig) engine() *campaign.Engine { return rc.o.engine(rc.progress) }

// Option is a functional option for the Experiment API.
type Option func(*runConfig) error

// NewOptions applies functional options over the Default configuration
// and validates the result.
func NewOptions(opts ...Option) (Options, error) {
	rc, err := newRunConfig(opts...)
	return rc.o, err
}

func newRunConfig(opts ...Option) (runConfig, error) {
	rc := runConfig{o: Default()}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&rc); err != nil {
			return rc, err
		}
	}
	return rc, rc.o.Validate()
}

// WithSmall switches to the fast test-scale configuration.
func WithSmall() Option {
	return func(rc *runConfig) error {
		workers := rc.o.Workers
		rc.o = Small()
		rc.o.Workers = workers
		return nil
	}
}

// WithSeed sets the campaign seed every cell seed derives from.
func WithSeed(seed uint64) Option {
	return func(rc *runConfig) error {
		rc.o.Seed = seed
		rc.o.ScalingCfg.Seed = seed
		return nil
	}
}

// WithWorkers sizes the worker pool (0 = runtime.NumCPU()).
func WithWorkers(n int) Option {
	return func(rc *runConfig) error { rc.o.Workers = n; return nil }
}

// WithMatrixSize sets the dense-kernel edge (DGEMM, Cholesky and HPL; HPL
// is rounded down to its block size).
func WithMatrixSize(n int) Option {
	return func(rc *runConfig) error {
		rc.o.DGEMMN, rc.o.CholN = n, n
		if rc.o.HPLNB > 0 {
			rc.o.HPLN = n - n%rc.o.HPLNB
		}
		return nil
	}
}

// WithL2Divisor sets the node scaling divisor (see machine.ScaledConfig).
func WithL2Divisor(d int) Option {
	return func(rc *runConfig) error { rc.o.L2Divisor = d; return nil }
}

// WithProgress installs a live progress callback (e.g.
// campaign.StderrProgress) on the run's campaign engine.
func WithProgress(f campaign.ProgressFunc) Option {
	return func(rc *runConfig) error { rc.progress = f; return nil }
}

// RunKernelCtx executes one workload under one ECC strategy on a fresh
// simulated node and returns the platform metrics. The run derives all
// randomness from o.Seed and shares no state with concurrent cells, so it
// is safe to fan out through the campaign engine.
func RunKernelCtx(ctx context.Context, o Options, k KernelID, s core.Strategy, mode abft.VerifyMode) (machine.Result, error) {
	if err := ctx.Err(); err != nil {
		return machine.Result{}, err
	}
	rt := core.NewRuntime(o.machineConfig(), s, int64(o.Seed))
	switch k {
	case KDGEMM:
		d, err := rt.NewDGEMM(o.DGEMMN, o.Seed)
		if err != nil {
			return machine.Result{}, fmt.Errorf("experiments: DGEMM: %w", err)
		}
		d.Mode = mode
		if err := d.Run(); err != nil {
			return machine.Result{}, fmt.Errorf("experiments: DGEMM: %w", err)
		}
	case KCholesky:
		c := rt.NewCholesky(o.CholN, o.Seed)
		c.Mode = mode
		if err := c.Run(); err != nil {
			return machine.Result{}, fmt.Errorf("experiments: Cholesky: %w", err)
		}
	case KCG:
		c := rt.NewCG(o.CGX, o.CGY, o.Seed)
		c.Mode = mode
		c.MaxIter = o.CGIters
		c.RelTol = 0
		c.CheckPeriod = 4
		if _, err := c.Run(); err != nil {
			return machine.Result{}, fmt.Errorf("experiments: CG: %w", err)
		}
	case KHPL:
		h, err := rt.NewHPL(o.HPLN, o.HPLNB, o.Seed)
		if err != nil {
			return machine.Result{}, fmt.Errorf("experiments: HPL: %w", err)
		}
		if err := h.Run(); err != nil {
			return machine.Result{}, fmt.Errorf("experiments: HPL: %w", err)
		}
	default:
		return machine.Result{}, fmt.Errorf("%w: KernelID(%d)", ErrUnknownKernel, int(k))
	}
	return rt.Finish(), nil
}

// BasicResults holds the §5.1 sweep: every kernel under every strategy.
type BasicResults map[KernelID]map[core.Strategy]machine.Result

var (
	basicMu    sync.Mutex
	basicCache = map[Options]BasicResults{}
)

// basicCell is one unit of the §5.1 fan-out.
type basicCell struct {
	k KernelID
	s core.Strategy
}

// basicRun executes the full sweep through the campaign engine, one cell
// per (kernel, strategy). Cells are independently seeded from o.Seed, so
// the assembled map is identical for any worker count.
func basicRun(ctx context.Context, rc runConfig) (BasicResults, error) {
	cells := make([]basicCell, 0, len(AllKernels)*len(core.Strategies))
	for _, k := range AllKernels {
		for _, s := range core.Strategies {
			cells = append(cells, basicCell{k, s})
		}
	}
	res, _, err := campaign.Map(ctx, rc.engine(), len(cells),
		func(ctx context.Context, i int) (machine.Result, error) {
			return RunKernelCtx(ctx, rc.o, cells[i].k, cells[i].s, abft.FullVerify)
		})
	if err != nil {
		return nil, err
	}
	out := BasicResults{}
	for i, c := range cells {
		if out[c.k] == nil {
			out[c.k] = map[core.Strategy]machine.Result{}
		}
		out[c.k][c.s] = res[i]
	}
	return out, nil
}

// basicCached memoizes the sweep per science configuration (Workers is
// scheduling, not science: it is zeroed out of the cache key).
func basicCached(ctx context.Context, rc runConfig) (BasicResults, error) {
	key := rc.o
	key.Workers = 0
	basicMu.Lock()
	r, ok := basicCache[key]
	basicMu.Unlock()
	if ok {
		return r, nil
	}
	out, err := basicRun(ctx, rc)
	if err != nil {
		return nil, err
	}
	basicMu.Lock()
	basicCache[key] = out
	basicMu.Unlock()
	return out, nil
}

// BasicCtx runs (once per Options, cached) the full §5.1 sweep through
// the campaign engine.
func BasicCtx(ctx context.Context, o Options) (BasicResults, error) {
	return basicCached(ctx, runConfig{o: o})
}

// header writes a row of column labels.
func header(w io.Writer, title string, cols []string) {
	fmt.Fprintf(w, "\n== %s ==\n%-14s", title, "")
	for _, c := range cols {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintln(w)
}
