package abft

import (
	"errors"
	"math"
	"testing"

	"coopabft/internal/campaign"
	"coopabft/internal/mat"
)

// Adversarial operand distributions for threshold calibration: the shapes
// and value ranges where a fixed epsilon either false-positives (large
// magnitudes, heavy accumulation) or misses faults (tiny magnitudes).
type dist struct {
	name    string
	m, k, n int
	gen     func(r, c int, seed uint64) *mat.Matrix32
}

func uniform32(r, c int, seed uint64) *mat.Matrix32 { return mat.Random32(r, c, seed) }

// largeVariance32 spans six decades with mixed sign: v = (u−½)·10^(6w−3).
func largeVariance32(r, c int, seed uint64) *mat.Matrix32 {
	u := mat.Random(r, c, seed)
	w := mat.Random(r, c, seed^0xabcdef)
	out := mat.New32(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Set(i, j, float32((u.At(i, j)-0.5)*math.Pow(10, 6*w.At(i, j)-3)))
		}
	}
	return out
}

// tiny32 keeps everything near the float32 denormal-adjacent range.
func tiny32(r, c int, seed uint64) *mat.Matrix32 {
	u := mat.Random(r, c, seed)
	out := mat.New32(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Set(i, j, float32((u.At(i, j)-0.5)*1e-6))
		}
	}
	return out
}

var dists = []dist{
	{"square-uniform", 96, 96, 96, uniform32},
	{"tall-skinny", 256, 64, 8, uniform32},
	{"skinny-tall", 8, 64, 256, uniform32},
	{"deep-k", 48, 512, 16, uniform32},
	{"batched-small", 16, 16, 16, uniform32},
	{"large-variance", 64, 96, 64, largeVariance32},
	{"large-variance-tall", 192, 48, 12, largeVariance32},
	{"tiny-magnitude", 64, 64, 64, tiny32},
}

// newGEMM32FromMatrices builds the problem over caller-supplied operands of
// any compatible rectangular shape (the adversarial shapes above, and the
// heap references the arena tests compare against), encoded as-is: they
// must be pristine.
func newGEMM32FromMatrices(a, b *mat.Matrix32) (*GEMM32, error) {
	g := new(GEMM32)
	if err := g.build(nil, a, b); err != nil {
		return nil, err
	}
	return g, nil
}

// TestGEMM32CleanSweepNoFalsePositives is the calibration property the ci
// gate runs by name: across adversarial distributions and seeds, a clean
// run must never trip the adaptive bound — no faults, no corrections, no
// restarts — and must pass the element-level oracle.
func TestGEMM32CleanSweepNoFalsePositives(t *testing.T) {
	for _, d := range dists {
		for seed := uint64(1); seed <= 8; seed++ {
			g, err := newGEMM32FromMatrices(d.gen(d.m, d.k, seed), d.gen(d.k, d.n, seed+101))
			if err != nil {
				t.Fatalf("%s seed %d: %v", d.name, seed, err)
			}
			if err := g.Run(); err != nil {
				t.Fatalf("%s seed %d: clean run failed: %v", d.name, seed, err)
			}
			if len(g.Faults) != 0 || len(g.Corrections) != 0 {
				t.Fatalf("%s seed %d: clean run flagged %d faults, %d corrections (false positive)",
					d.name, seed, len(g.Faults), len(g.Corrections))
			}
			if err := g.CheckResult(); err != nil {
				t.Fatalf("%s seed %d: oracle: %v", d.name, seed, err)
			}
		}
	}
}

// TestGEMM32FaultAboveBoundAlwaysDetected injects additive corruption whose
// magnitude exceeds a computable upper bound of the adaptive line bound —
// the detection property: anything above the bound must be flagged, and the
// delivered result must still pass the pristine oracle (repair) or the run
// must refuse (uncorrectable). Silent acceptance is the only failure.
func TestGEMM32FaultAboveBoundAlwaysDetected(t *testing.T) {
	for _, d := range dists {
		for seed := uint64(1); seed <= 4; seed++ {
			a := d.gen(d.m, d.k, seed)
			b := d.gen(d.k, d.n, seed+101)
			g, err := newGEMM32FromMatrices(a, b)
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			// Upper bound of every line bound the run will ever use:
			// absSum ≤ lineLen·K·maxA·maxB and rms ≤ maxA·maxB.
			maxProd := a.MaxAbs() * b.MaxAbs()
			kf := float64(g.K)
			lineLen := float64(max(g.M, g.N))
			tolMax := ThresholdLambda * (1.0 / (1 << 24)) * kf *
				(lineLen*kf*maxProd + math.Sqrt(kf)*lineLen*maxProd)
			if tolMax == 0 {
				t.Fatalf("%s: degenerate operands", d.name)
			}
			st := seed * 77
			next := func() uint64 { st++; return campaign.Splitmix64(st) }
			panel := int(next() % uint64(g.Panels()))
			r := int(next() % uint64(g.M))
			c := int(next() % uint64(g.N))
			delta := float32(2 * tolMax)
			g.OnPanel = func(p int) {
				if p == panel {
					g.C.Set(r, c, g.C.At(r, c)+delta)
				}
			}
			runErr := g.Run()
			if len(g.Faults) == 0 {
				t.Fatalf("%s seed %d: injected delta %g above bound %g went undetected",
					d.name, seed, delta, tolMax)
			}
			if runErr != nil {
				if !errors.Is(runErr, ErrUncorrectable) {
					t.Fatalf("%s seed %d: unexpected error %v", d.name, seed, runErr)
				}
				continue // refusing is a legal non-silent outcome
			}
			if err := g.CheckResult(); err != nil {
				t.Fatalf("%s seed %d: repaired run fails oracle: %v", d.name, seed, err)
			}
		}
	}
}

// TestGEMM32BitFlipNeverSilent drives realistic exponent-bit flips into C,
// A, and B across panels and seeds. The contract mirrors the recovery
// ladder's: a run either detects and repairs (oracle-clean result), or
// refuses with ErrUncorrectable — it never delivers a silently wrong
// answer.
func TestGEMM32BitFlipNeverSilent(t *testing.T) {
	flip := func(d []float32, idx int) {
		d[idx] = math.Float32frombits(math.Float32bits(d[idx]) ^ (1 << 30))
	}
	for seed := uint64(1); seed <= 24; seed++ {
		a := mat.Random32(80, 80, seed)
		b := mat.Random32(80, 80, seed+1)
		pristineRef := mat.New(80, 80)
		mat.MulAddInto(pristineRef, a.To64(), b.To64())

		g, err := newGEMM32FromMatrices(a, b)
		if err != nil {
			t.Fatal(err)
		}
		st := seed
		next := func() uint64 { st++; return campaign.Splitmix64(st) }
		panel := int(next() % uint64(g.Panels()))
		target := int(next() % 3)
		g.OnPanel = func(p int) {
			if p != panel {
				return
			}
			switch target {
			case 0:
				flip(g.C.Data, int(next()%uint64(len(g.C.Data))))
			case 1:
				// Flip inside the not-yet-consumed k range so the fault is
				// live (a flip behind the panel cursor is never read again).
				kk := panel * g.Block
				col := kk + int(next()%uint64(g.K-kk))
				row := int(next() % uint64(g.M))
				flip(g.A.Data, row*g.A.Stride+col)
			default:
				kk := panel * g.Block
				row := kk + int(next()%uint64(g.K-kk))
				col := int(next() % uint64(g.N))
				flip(g.B.Data, row*g.B.Stride+col)
			}
		}
		runErr := g.Run()
		if runErr != nil {
			if !errors.Is(runErr, ErrUncorrectable) {
				t.Fatalf("seed %d target %d: unexpected error %v", seed, target, runErr)
			}
			continue
		}
		// Delivered: the result must match the PRISTINE reference — operand
		// flips may not be laundered into the answer via a consistent
		// (corrupted A, corrupted ref) pair.
		if target != 0 {
			t.Fatalf("seed %d: operand flip at panel %d delivered instead of refusing", seed, panel)
		}
		if len(g.Faults) == 0 || len(g.Corrections) == 0 {
			t.Fatalf("seed %d: C flip delivered with no detection/repair", seed)
		}
		for i := 0; i < g.M; i++ {
			for j := 0; j < g.N; j++ {
				ref := pristineRef.At(i, j)
				if math.Abs(float64(g.C.At(i, j))-ref) > ElementBound32(g.K, ref, g.aMom, g.bMom) {
					t.Fatalf("seed %d: silent corruption at (%d,%d): got %g want %g",
						seed, i, j, g.C.At(i, j), ref)
				}
			}
		}
	}
}

// TestGEMM32RepairConvergence pins the refold loop's reason to exist: a
// huge-magnitude flip absorbs its line's float64 sums, so the first repair
// round cannot land exactly — but the refolded second round must.
func TestGEMM32RepairConvergence(t *testing.T) {
	g, err := NewGEMM32(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	g.OnPanel = func(p int) {
		if p == 0 {
			g.C.Set(10, 20, 3e34) // dwarfs every honest value in the row/col sums
		}
	}
	if err := g.Run(); err != nil {
		t.Fatalf("huge flip not repaired: %v", err)
	}
	if len(g.Corrections) == 0 {
		t.Fatal("no corrections recorded")
	}
	if err := g.CheckResult(); err != nil {
		t.Fatalf("oracle after repair: %v", err)
	}
}

// TestThresholdBounds sanity-pins the bound shapes: monotone in k, scaled
// by operand magnitude, zero only for zero data.
func TestThresholdBounds(t *testing.T) {
	mom := mat.Moments{Count: 100, SumSq: 25, MaxAbs: 2} // meanSq 0.25
	if LineBound32(64, 32, 10, mom, mom) <= LineBound32(32, 32, 10, mom, mom) {
		t.Fatal("LineBound32 not monotone in kAcc")
	}
	big := mat.Moments{Count: 100, SumSq: 2500, MaxAbs: 20}
	if LineBound32(32, 32, 10, big, big) <= LineBound32(32, 32, 10, mom, mom) {
		t.Fatal("LineBound32 not scaled by operand magnitude")
	}
	if got := LineBound32(32, 32, 0, mat.Moments{}, mat.Moments{}); got != 0 {
		t.Fatalf("zero-data LineBound32 = %g, want 0", got)
	}
	if OperandBound32(1000, big) >= u32 {
		t.Fatal("OperandBound32 should sit far below float32 resolution")
	}
}
