package abft

import (
	"errors"
	"math"
	"testing"

	"coopabft/internal/mat"
)

// A flipped exponent bit can turn an element into NaN or ±Inf, and
// |delta| > tol is false for a NaN delta: written that way, every checksum
// comparison and every oracle waves a NaN through. These tests pin the
// other form, !(|delta| <= tol), at each kernel: a non-finite value is
// repaired or refused, never delivered.

var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

func allFinite(m *mat.Matrix) bool {
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// TestDGEMMRepairsNonFinite plants a non-finite value in Cf between two
// panels. The next check (the sweep in full mode, the panel boundary in
// fused mode) must flag its row and column and rebuild the element from its
// column: one correction, a finite product the oracle accepts.
func TestDGEMMRepairsNonFinite(t *testing.T) {
	for _, mode := range []VerifyMode{FullVerify, FusedVerify} {
		for _, bad := range nonFinite {
			d := mustDGEMM(t, Standalone(), 32, 7)
			d.Block, d.Mode = 8, mode
			d.OnPanel = func(p int) {
				if p == 1 {
					d.Cf.Set(3, 4, bad)
				}
			}
			if err := d.Run(); err != nil {
				t.Fatalf("%v/%g: run: %v", mode, bad, err)
			}
			if len(d.Corrections) != 1 || d.Corrections[0].I != 3 || d.Corrections[0].J != 4 {
				t.Fatalf("%v/%g: corrections = %+v, want exactly (3,4)", mode, bad, d.Corrections)
			}
			if !allFinite(d.Cf.Matrix) {
				t.Fatalf("%v/%g: non-finite value survived in Cf", mode, bad)
			}
			if err := d.VerifyFull(); err != nil {
				t.Fatalf("%v/%g: final sweep: %v", mode, bad, err)
			}
			if err := d.CheckResult(); err != nil {
				t.Fatalf("%v/%g: oracle: %v", mode, bad, err)
			}
		}
	}
}

// TestDGEMMOracleRejectsNonFinite: with verification off the value reaches
// the answer, and the end-of-run oracle is then the only thing between it
// and the client.
func TestDGEMMOracleRejectsNonFinite(t *testing.T) {
	for _, bad := range nonFinite {
		d := mustDGEMM(t, Standalone(), 24, 3)
		d.CheckPeriod = 0
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		d.Cf.Set(5, 6, bad)
		if d.CheckResult() == nil {
			t.Errorf("oracle accepts a product holding %g", bad)
		}
		if err := d.VerifyFull(); err != nil || d.CheckResult() != nil {
			t.Errorf("%g: sweep did not restore the product (verify: %v)", bad, err)
		}
	}
}

// TestGEMM32NonFiniteNeverSilent is the float32 analogue. An additive line
// delta cannot rebuild a NaN, so refusing with ErrUncorrectable is as good
// as a repair; returning nil with the value still in C is the bug.
func TestGEMM32NonFiniteNeverSilent(t *testing.T) {
	for _, bad := range nonFinite {
		g, err := NewGEMM32(64, 7)
		if err != nil {
			t.Fatal(err)
		}
		g.OnPanel = func(p int) {
			if p == 1 {
				g.C.Set(3, 4, float32(bad))
			}
		}
		if err := g.Run(); err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("%g: unexpected error %v", bad, err)
			}
			continue
		}
		if len(g.Faults) == 0 {
			t.Errorf("%g: delivered without a detection", bad)
		}
		if !allFinite(g.C.To64()) {
			t.Errorf("%g: non-finite value delivered in C", bad)
		}
		if err := g.CheckResult(); err != nil {
			t.Errorf("%g: delivered result fails the oracle: %v", bad, err)
		}
	}
	// The oracle on its own.
	g, err := NewGEMM32(32, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	g.C.Set(1, 2, float32(math.NaN()))
	if g.CheckResult() == nil {
		t.Error("GEMM32 oracle accepts a product holding NaN")
	}
}

// TestCholeskyNonFiniteNeverSilent plants the value in a trailing column
// one step before its panel is factored. Full verification must refuse (a
// non-finite delta pair locates nothing); notified verification without a
// notifier sees nothing, so the factor comes out poisoned and the oracle
// must say so.
func TestCholeskyNonFiniteNeverSilent(t *testing.T) {
	for _, mode := range []VerifyMode{FullVerify, NotifiedVerify} {
		for _, bad := range nonFinite {
			c, orig := cholProblem(48, 7)
			c.Block, c.Mode = 16, mode
			c.OnPanel = func(step int) {
				if step == 1 {
					c.A.Set(30, 20, bad)
				}
			}
			err := c.Run()
			if mode == FullVerify {
				if !errors.Is(err, ErrUncorrectable) {
					t.Errorf("full/%g: run = %v, want ErrUncorrectable", bad, err)
				}
				continue
			}
			if err != nil {
				if !errors.Is(err, mat.ErrNotPositiveDefinite) {
					t.Errorf("notified/%g: unexpected error %v", bad, err)
				}
				continue
			}
			if allFinite(c.L()) {
				t.Fatalf("notified/%g: the planted value did not reach L; the test no longer tests the oracle", bad)
			}
			if c.CheckResult(orig) == nil {
				t.Errorf("notified/%g: oracle accepts a non-finite factor", bad)
			}
		}
	}
}

// TestFactorizationOraclesRejectNaN: LU's and QR's solution oracles compare
// element by element; a factor poisoned after a clean run yields a NaN
// solution, which they must refuse. (Their row checks use the same
// comparison form; a NaN planted before the run is refused there.)
func TestFactorizationOraclesRejectNaN(t *testing.T) {
	l, lorig := luProblem(16, 3)
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	l.Af.Set(15, 15, math.NaN())
	if l.CheckResult(toMatrix(lorig)) == nil {
		t.Error("LU oracle accepts a NaN solution")
	}
	l, _ = luProblem(16, 3)
	l.Af.Set(9, 4, math.NaN())
	if err := l.Run(); !errors.Is(err, ErrUncorrectable) {
		t.Errorf("LU run over a NaN element = %v, want ErrUncorrectable", err)
	}

	q := NewQR(Standalone(), 16, 3)
	qorig := mat.New(16, 16)
	for i := 0; i < 16; i++ {
		copy(qorig.Row(i), q.Af.Row(i)[:16])
	}
	if err := q.Run(); err != nil {
		t.Fatal(err)
	}
	if err := q.CheckResult(qorig); err != nil {
		t.Fatalf("clean QR fails its oracle: %v", err)
	}
	q.Af.Set(15, 15, math.NaN())
	if q.CheckResult(qorig) == nil {
		t.Error("QR oracle accepts a NaN solution")
	}
}
