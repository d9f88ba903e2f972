package abft

import (
	"errors"
	"testing"

	"coopabft/internal/mat"
)

func hplProblem(n, nb int, seed uint64) (*HPL, *mat.Matrix) {
	h, err := NewHPL(Standalone(), n, nb, seed)
	if err != nil {
		panic(err)
	}
	return h, h.A.Matrix.Clone()
}

func TestHPLSiblingMapping(t *testing.T) {
	h, _ := hplProblem(32, 4, 1)
	// Row 0 (block 0, pr 0) pairs with row 4 (block 1, pr 1), slot 0.
	if p, u := h.sibling(0); p != 4 || u != 0 {
		t.Errorf("sibling(0) = %d, slot %d", p, u)
	}
	if p, u := h.sibling(4); p != 0 || u != 0 {
		t.Errorf("sibling(4) = %d, slot %d", p, u)
	}
	// Row 9 (block 2, t=1, off 1) pairs with 13, slot 5.
	if p, u := h.sibling(9); p != 13 || u != 5 {
		t.Errorf("sibling(9) = %d, slot %d", p, u)
	}
	// Sibling is an involution across all rows.
	for i := 0; i < 32; i++ {
		p, u := h.sibling(i)
		pp, uu := h.sibling(p)
		if pp != i || uu != u {
			t.Fatalf("sibling not involutive at %d", i)
		}
		if h.ownerPr(i) == h.ownerPr(p) {
			t.Fatalf("siblings %d,%d on same process row", i, p)
		}
	}
}

func TestHPLSizeValidation(t *testing.T) {
	// Malformed sizes must come back as typed errors, not crashes.
	for _, c := range []struct{ n, nb int }{{30, 4}, {32, 0}, {0, 4}} {
		h, err := NewHPL(Standalone(), c.n, c.nb, 1)
		if !errors.Is(err, ErrBadSize) {
			t.Errorf("NewHPL(n=%d, nb=%d) error = %v, want ErrBadSize", c.n, c.nb, err)
		}
		if h != nil {
			t.Errorf("NewHPL(n=%d, nb=%d) returned a kernel alongside the error", c.n, c.nb)
		}
	}
}

func TestHPLEncodingInvariantAfterConstruction(t *testing.T) {
	h, _ := hplProblem(24, 4, 2)
	if w := h.VerifyEncoding(); w > 1e-12 {
		t.Errorf("fresh encoding deviation %g", w)
	}
}

func TestHPLCleanFactorization(t *testing.T) {
	h, orig := hplProblem(32, 4, 3)
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckResult(orig); err != nil {
		t.Fatal(err)
	}
	if h.Recovered != 0 {
		t.Errorf("clean run recovered %d elements", h.Recovered)
	}
}

func TestHPLEncodingMaintainedThroughFactorization(t *testing.T) {
	// The core FT-HPL property: T = sibling sums at EVERY step. Check at
	// the end (the invariant is maintained inductively, so a final check
	// over the fully factored storage is the strongest single assertion).
	h, _ := hplProblem(32, 4, 4)
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if w := h.VerifyEncoding(); w > 1e-7 {
		t.Errorf("post-factorization encoding deviation %g", w)
	}
}

func TestHPLSurvivesFailStopEveryProcess(t *testing.T) {
	for pr := 0; pr < 2; pr++ {
		for pc := 0; pc < 2; pc++ {
			h, orig := hplProblem(32, 4, 5)
			h.FailAt, h.FailPr, h.FailPc = 10, pr, pc
			if err := h.Run(); err != nil {
				t.Fatalf("proc (%d,%d): %v", pr, pc, err)
			}
			if h.Recovered == 0 {
				t.Fatalf("proc (%d,%d): nothing recovered", pr, pc)
			}
			if err := h.CheckResult(orig); err != nil {
				t.Fatalf("proc (%d,%d): %v", pr, pc, err)
			}
		}
	}
}

func TestHPLFailStopAtVariousSteps(t *testing.T) {
	for _, at := range []int{0, 1, 15, 31} {
		h, orig := hplProblem(32, 4, 6)
		h.FailAt, h.FailPr, h.FailPc = at, 1, 0
		if err := h.Run(); err != nil {
			t.Fatalf("fail at %d: %v", at, err)
		}
		if err := h.CheckResult(orig); err != nil {
			t.Fatalf("fail at %d: %v", at, err)
		}
	}
}

func TestHPLRecoveredElementCount(t *testing.T) {
	h, _ := hplProblem(32, 4, 7)
	h.FailAt, h.FailPr, h.FailPc = 5, 0, 1
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	// A 2×2 grid: each process owns a quarter of the matrix.
	want := 32 * 32 / 4
	if h.Recovered != want {
		t.Errorf("recovered %d elements, want %d", h.Recovered, want)
	}
}

func TestHPLOpsBuckets(t *testing.T) {
	h, _ := hplProblem(32, 4, 8)
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if h.Ops.Compute == 0 || h.Ops.Checksum == 0 {
		t.Errorf("ops = %+v", h.Ops)
	}
}
