package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/ecc"
	"coopabft/internal/machine"
	"coopabft/internal/resilience"
)

// smallCfg returns a runConfig at test scale with the given worker count.
func smallCfg(t *testing.T, workers int, extra ...Option) runConfig {
	t.Helper()
	opts := append([]Option{WithSmall(), WithWorkers(workers)}, extra...)
	rc, err := newRunConfig(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// TestRegistryNamesResolve checks every registered name round-trips through
// Lookup and reports itself correctly.
func TestRegistryNamesResolve(t *testing.T) {
	names := Names()
	if len(names) < 12 {
		t.Fatalf("registry has only %d experiments: %v", len(names), names)
	}
	for _, name := range names {
		e, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if e.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, e.Name())
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := Lookup("fig99")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("err = %v, want ErrUnknownExperiment", err)
	}
}

// TestExperimentRunAndRender executes two cheap registered experiments end
// to end through the interface.
func TestExperimentRunAndRender(t *testing.T) {
	for _, name := range []string{"table3", "table5"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), WithSmall())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Experiment != name {
			t.Errorf("Result.Experiment = %q, want %q", res.Experiment, name)
		}
		var b bytes.Buffer
		res.Render(&b)
		if b.Len() == 0 {
			t.Errorf("%s rendered nothing", name)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	e, err := Lookup("table3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), WithWorkers(-1)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative workers: err = %v, want ErrBadConfig", err)
	}
	for name, edit := range map[string]func(*Options){
		"negative matrix size": func(o *Options) { o.DGEMMN = -4 },
		"zero L2 divisor":      func(o *Options) { o.L2Divisor = 0 },
	} {
		o := Small()
		edit(&o)
		if err := o.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
	// table3 reports the options it ran with.
	res, err := e.Run(context.Background(), WithSmall(), WithSeed(7), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if o := res.Data.(Options); o.Seed != 7 || o.ScalingCfg.Seed != 7 || o.Workers != 3 || o.DGEMMN != Small().DGEMMN {
		t.Errorf("options not applied: %+v", o)
	}
}

func TestRunKernelCtxUnknownKernel(t *testing.T) {
	_, err := RunKernelCtx(context.Background(), Small(), KernelID(99), core.NoECC, 0)
	if !errors.Is(err, ErrUnknownKernel) {
		t.Fatalf("err = %v, want ErrUnknownKernel", err)
	}
}

// --- Determinism: workers=1 and workers=N must be bit-identical ---

// TestBasicSweepDeterministic covers the RunKernel fan-out family (the
// substrate of fig3/table1/table4/fig5/6/7/10). basicRun is called directly
// to bypass the result cache.
func TestBasicSweepDeterministic(t *testing.T) {
	serial, err := basicRun(context.Background(), smallCfg(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := basicRun(context.Background(), smallCfg(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("basic sweep differs between 1 and 8 workers")
	}
}

// TestScalingDeterministic covers the fig9 strong-scaling fan-out.
func TestScalingDeterministic(t *testing.T) {
	serial, err := fig9Run(context.Background(), smallCfg(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := fig9Run(context.Background(), smallCfg(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("fig9 differs between 1 and 8 workers")
	}
}

// TestCasesDeterministic covers the resilience Monte-Carlo family.
func TestCasesDeterministic(t *testing.T) {
	run := func(workers int) resilience.Outcome {
		eng := campaign.New(campaign.WithWorkers(workers))
		o, err := resilience.RunCampaignCtx(context.Background(), ecc.Chipkill, resilience.Burst64, 500, 21, eng)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("resilience campaign differs: %+v vs %+v", a, b)
	}
}

// TestCapabilityDeterministic covers the capability-curve trial fan-out.
func TestCapabilityDeterministic(t *testing.T) {
	run := func(workers int) []resilience.CapabilityPoint {
		eng := campaign.New(campaign.WithWorkers(workers))
		pts, err := resilience.CapabilityCurveCtx(context.Background(),
			resilience.KernelDGEMM, 16, []int{1, 4}, 6, 5, eng)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Errorf("capability curve differs: %+v vs %+v", a, b)
	}
}

// TestThresholdDeterministic covers the threshold-study sweep points.
func TestThresholdDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold sweep is slow under -short")
	}
	errs := []int{0, 8}
	serial, err := thresholdStudyRun(context.Background(), smallCfg(t, 1), errs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := thresholdStudyRun(context.Background(), smallCfg(t, 8), errs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("threshold study differs between 1 and 8 workers")
	}
}

// --- Cancellation ---

// TestCampaignCancellation checks a cancelled campaign returns promptly
// with a partial-result error that unwraps to context.Canceled.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := basicRun(ctx, smallCfg(t, 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var pe *campaign.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *campaign.PartialError", err)
	}
	if pe.Done >= pe.Total {
		t.Errorf("cancelled campaign claims completion: %d/%d", pe.Done, pe.Total)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled campaign took %v to return", elapsed)
	}
}

// TestExperimentCancellation checks cancellation propagates through the
// registry interface.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := Lookup("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx, WithSmall()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProgressReporting checks the metrics callback fires and converges on
// the cell count.
func TestProgressReporting(t *testing.T) {
	var last campaign.Metrics
	rc := smallCfg(t, 2, WithProgress(func(m campaign.Metrics) { last = m }))
	if _, err := fig3Run(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	if last.Done != last.Cells || last.Cells == 0 {
		t.Errorf("final metrics incomplete: %+v", last)
	}
}

// TestWorkersExcludedFromCache checks the result cache treats runs that
// differ only in worker count as the same experiment.
func TestWorkersExcludedFromCache(t *testing.T) {
	a, err := basicCached(context.Background(), smallCfg(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := basicCached(context.Background(), smallCfg(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !machineResultsSame(a, b) {
		t.Error("cache returned different results for different worker counts")
	}
}

func machineResultsSame(a, b BasicResults) bool {
	if len(a) != len(b) {
		return false
	}
	for k, sa := range a {
		sb, ok := b[k]
		if !ok || len(sa) != len(sb) {
			return false
		}
		for s, ra := range sa {
			if rb, ok := sb[s]; !ok || !reflect.DeepEqual(ra, rb) {
				return false
			}
		}
	}
	return true
}

func TestMachineConfigValidate(t *testing.T) {
	c := machine.ScaledConfig(32)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.CPU.ClockHz = -1
	if err := c.Validate(); !errors.Is(err, machine.ErrBadConfig) {
		t.Errorf("negative clock: err = %v, want machine.ErrBadConfig", err)
	}
}
