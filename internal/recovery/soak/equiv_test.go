package soak

// Equivalence oracle for the functional runtime: every cell runs once on
// the timed platform (core.NewRuntime) and once on the functional one
// (core.NewFunctionalRuntime), and the two must end with the same
// recovery.Report, field for field, and the same answer bits. This is what
// lets serving and the soak harness drop the cache/DRAM timing model
// without changing a single classified outcome.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/machine"
	"coopabft/internal/mat"
	"coopabft/internal/recovery"
)

// sameRun compares two finished runs; Err compares by message.
func sameRun(t *testing.T, label string, timed, fn recovery.Report, tw, fw recovery.Workload) {
	t.Helper()
	te, fe := fmt.Sprint(timed.Err), fmt.Sprint(fn.Err)
	timed.Err, fn.Err = nil, nil
	if timed != fn || te != fe {
		t.Errorf("%s: reports differ\n timed      %+v err=%s\n functional %+v err=%s", label, timed, te, fn, fe)
		return
	}
	ta, tok := tw.(recovery.Answerer)
	fa, fok := fw.(recovery.Answerer)
	if !tok || !fok {
		t.Errorf("%s: workload exposes no answer data", label)
		return
	}
	if ts, fs := abft.AnswerSig(ta.AnswerData()...), abft.AnswerSig(fa.AnswerData()...); ts != fs {
		t.Errorf("%s: answers differ: timed %s, functional %s", label, ts, fs)
	}
}

// runBoth runs one cell on both runtimes and compares.
func runBoth(t *testing.T, label string, cfg Config, kernel Kernel, strat core.Strategy, kind bifit.Kind, count int, seed uint64) (recovery.Report, *core.Runtime) {
	t.Helper()
	mc := machine.ScaledConfig(32)
	trep, tw := runOn(core.NewRuntime(mc, strat, int64(seed)), cfg, kernel, kind, count, seed)
	frt := core.NewFunctionalRuntime(mc, strat, int64(seed))
	frep, fw := runOn(frt, cfg, kernel, kind, count, seed)
	sameRun(t, label, trep, frep, tw, fw)
	return frep, frt
}

// equivGrids is the oracle's grid: the acceptance grid (3 kernels × 6
// strategies × 4 kinds × 3 counts, notified DGEMM) plus the DGEMM rows again
// under full and fused verification, 360 cells, seeds and defaults applied.
func equivGrids() []Config {
	grids := []Config{Default()}
	for _, mode := range []abft.VerifyMode{abft.FullVerify, abft.FusedVerify} {
		g := Default()
		g.Kernels = []Kernel{KDGEMM}
		g.DGEMMMode = mode
		grids = append(grids, g)
	}
	for gi := range grids {
		grids[gi].Seed = 7 + uint64(gi)
		grids[gi].defaults()
	}
	return grids
}

func TestFunctionalRuntimeMatchesTimed(t *testing.T) {
	if testing.Short() {
		t.Skip("720 runs, half of them timed: ci.sh runs this under -race on a line of its own")
	}
	cells, armed, outcomes := 0, 0, map[recovery.Outcome]int{}
	for _, cfg := range equivGrids() {
		prev := mat.SetParallelism(cfg.Parallelism)
		for i := 0; i < cfg.Cells(); i++ {
			kernel, strat, kind, count := cfg.cell(i)
			label := fmt.Sprintf("%v/%v/%v/%v×%d", cfg.DGEMMMode, kernel, strat, kind, count)
			rep, frt := runBoth(t, label, cfg, kernel, strat, kind, count, campaign.CellSeed(cfg.Seed, uint64(i)))
			cells++
			outcomes[rep.Outcome]++
			// The operators' counter rests on this: a hierarchy is armed
			// exactly when an injection was delivered.
			if (frt.M.Arms() > 0) != (rep.Injected > 0) {
				t.Errorf("%s: armed %d times with %d injections delivered", label, frt.M.Arms(), rep.Injected)
			}
			if frt.M.Arms() > 0 {
				armed++
			}
		}
		mat.SetParallelism(prev)
	}
	if cells < 200 || armed < 200 {
		t.Errorf("oracle covered %d cells, %d of them armed; want at least 200 of each", cells, armed)
	}
	// The comparison means little unless the grid reaches every rung.
	for _, o := range []recovery.Outcome{recovery.Corrected, recovery.Restarted, recovery.Aborted} {
		if outcomes[o] == 0 {
			t.Errorf("no cell ended %v: %v", o, outcomes)
		}
	}
	t.Logf("%d cells, outcomes %v", cells, outcomes)
}

// TestFunctionalRuntimeSecondFaultWhileResident: under P_CK+No_ECC a fault
// in C is invisible to hardware and stays in the fault table until ABFT's
// closing sweep, so a second injection two panels later lands on an armed
// hierarchy and re-flushes it mid-residency instead of building a new one.
func TestFunctionalRuntimeSecondFaultWhileResident(t *testing.T) {
	const n, seed = 80, 5
	mc := machine.ScaledConfig(32)
	run := func(rt *core.Runtime) (recovery.Report, recovery.Workload) {
		w, err := recovery.NewDGEMMWorkload(rt, n, seed, abft.NotifiedVerify)
		if err != nil {
			t.Fatal(err)
		}
		co := &recovery.Coordinator{RT: rt, W: w, Plan: []recovery.Injection{
			{Tick: 1, Kind: bifit.SingleBit, Target: 0, Elem: 3*(n+1) + 5},
			{Tick: 3, Kind: bifit.ChipFailure, Target: 0, Elem: 40*(n+1) + 41},
		}}
		return co.Run(), w
	}
	trep, tw := run(core.NewRuntime(mc, core.PartialChipkillNoECC, seed))
	frt := core.NewFunctionalRuntime(mc, core.PartialChipkillNoECC, seed)
	frep, fw := run(frt)
	sameRun(t, "resident", trep, frep, tw, fw)
	if frep.Injected != 2 || frt.M.Arms() != 1 {
		t.Errorf("injected %d, armed %d times; want 2 injections on one arm", frep.Injected, frt.M.Arms())
	}
}

// TestFunctionalRuntimeRecycledMatchesFresh is the same oracle turned on the
// node's lifetime: serving keeps functional nodes in a pool and resets one
// per request (core.Runtime.Reset), so a run on a node that has lived other
// lives must end exactly as the run on a node built for it. ONE runtime is
// reset between all 360 cells, in a seeded shuffled order and interleaved
// with fault-free cells of every kernel, strategy and verify mode, so that
// clean and faulted cells alike follow cells that armed the hierarchy,
// panicked the OS, retired a page or left residual patterns in the fault
// table. Report, machine.Result and answer bits must equal the
// fresh-node run's. (No cell of the grid ends with corruptions pending or
// the region registers exhausted: the coordinator drains the first and the
// kernels need three registers of eight. core's TestRuntimeResetEqualsNew
// recycles a node out of that state.)
func TestFunctionalRuntimeRecycledMatchesFresh(t *testing.T) {
	type cell struct {
		cfg    Config
		kernel Kernel
		strat  core.Strategy
		kind   bifit.Kind
		count  int
		seed   uint64
	}
	var faulted, clean []cell
	for _, cfg := range equivGrids() {
		for i := 0; i < cfg.Cells(); i++ {
			kernel, strat, kind, count := cfg.cell(i)
			faulted = append(faulted, cell{cfg, kernel, strat, kind, count, campaign.CellSeed(cfg.Seed, uint64(i))})
		}
		for _, kernel := range cfg.Kernels {
			for si, strat := range cfg.Strategies {
				clean = append(clean, cell{cfg, kernel, strat, bifit.SingleBit, 0, campaign.CellSeed(cfg.Seed, uint64(1000+si))})
			}
		}
	}
	// Faulted cells in shuffled order with a clean one after every second:
	// half the faulted cells start where a faulted one stopped, and the few
	// lives that end panicked or with a page retired are as likely to be
	// followed by a clean cell as by a faulted one.
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(faulted), func(i, j int) { faulted[i], faulted[j] = faulted[j], faulted[i] })
	var cells []cell
	for i, c := range faulted {
		cells = append(cells, c)
		if i%2 == 1 {
			cells = append(cells, clean[rng.Intn(len(clean))])
		}
	}

	prev := mat.SetParallelism(cells[0].cfg.Parallelism)
	defer mat.SetParallelism(prev)
	mc := machine.ScaledConfig(32)
	recycled := core.NewFunctionalRuntime(mc, core.NoECC, 0)
	// What the previous life left behind, and how many cells of each kind
	// (clean, faulted) started on a node in that state.
	var left struct{ armed, panicked, retired, residual bool }
	after := map[string][2]int{}
	for _, c := range cells {
		label := fmt.Sprintf("%v/%v/%v/%v×%d", c.cfg.DGEMMMode, c.kernel, c.strat, c.kind, c.count)
		fresh := core.NewFunctionalRuntime(mc, c.strat, int64(c.seed))
		wantRep, wantW := runOn(fresh, c.cfg, c.kernel, c.kind, c.count, c.seed)

		recycled.Reset(c.strat, int64(c.seed))
		gotRep, gotW := runOn(recycled, c.cfg, c.kernel, c.kind, c.count, c.seed)
		sameRun(t, label, wantRep, gotRep, wantW, gotW)
		wantRes, gotRes := fresh.Finish(), recycled.Finish()
		if !reflect.DeepEqual(wantRes, gotRes) || fresh.M.Arms() != recycled.M.Arms() {
			t.Errorf("%s: machine results differ\n fresh    %+v armed %d\n recycled %+v armed %d", label, wantRes, fresh.M.Arms(), gotRes, recycled.M.Arms())
		}

		kind := 0 // clean
		if c.count > 0 {
			kind = 1
		}
		for name, was := range map[string]bool{"armed": left.armed, "panicked": left.panicked, "retired": left.retired, "residual": left.residual} {
			if was {
				n := after[name]
				n[kind]++
				after[name] = n
			}
		}
		left.armed = recycled.M.Arms() > 0
		left.panicked = gotRes.OS.Panics > 0
		left.retired = gotRes.OS.PagesRetired > 0
		left.residual = recycled.M.Ctl.FaultyLines() > 0
	}
	// The comparison means little unless both kinds of cell followed each
	// kind of leftover that the grid produces at all.
	for _, name := range []string{"armed", "panicked", "retired", "residual"} {
		if n := after[name]; n[0] == 0 || n[1] == 0 {
			t.Errorf("no clean cell or no faulted cell ran on a node whose previous life left it %s: %v", name, after)
		}
	}
	t.Logf("%d cells on one node; cells [clean faulted] that followed a life which left the node: %v", len(cells), after)
}
