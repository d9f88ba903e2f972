package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQRReconstructsA(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33} {
		a := DiagonallyDominant(n, uint64(n)+40)
		q, err := QRFactor(a, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Q·R must equal A.
		qm := q.QMatrix()
		rec := Mul(qm, q.R)
		if !Equal(rec, a, 1e-8*float64(n)) {
			t.Errorf("n=%d: Q·R ≠ A (max diff %g)", n, maxDiff(rec, a))
		}
		// R is upper triangular.
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if q.R.At(i, j) != 0 {
					t.Fatalf("n=%d: R[%d][%d] = %g", n, i, j, q.R.At(i, j))
				}
			}
		}
	}
}

func TestQROrthogonality(t *testing.T) {
	a := Random(20, 20, 9)
	for i := 0; i < 20; i++ {
		a.Add(i, i, 20)
	}
	q, err := QRFactor(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	qm := q.QMatrix()
	qtq := Mul(qm.Transpose(), qm)
	if !Equal(qtq, Eye(20), 1e-10) {
		t.Error("QᵀQ ≠ I")
	}
}

func TestQRStepHook(t *testing.T) {
	a := DiagonallyDominant(8, 2)
	var steps []int
	if _, err := QRFactor(a, func(k int) error { steps = append(steps, k); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(steps) != 8 || steps[0] != 0 || steps[7] != 7 {
		t.Errorf("steps = %v", steps)
	}
}

func TestQRSingular(t *testing.T) {
	a := New(3, 3) // all zeros
	if _, err := QRFactor(a, nil); err != ErrSingular {
		t.Errorf("err = %v", err)
	}
}

// Property: the Householder invariant — appended checksum columns transform
// exactly like the row sums they encode (H·(A·e) = (H·A)·e).
func TestQRChecksumCommutesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 3 + int(seed%10)
		a := DiagonallyDominant(n, seed)
		// Extend with a row-sum column.
		ext := New(n, n+1)
		for i := 0; i < n; i++ {
			copy(ext.Row(i)[:n], a.Row(i))
			ext.Set(i, n, Sum(a.Row(i)))
		}
		v := New(n, n)
		beta := make([]float64, n)
		for k := 0; k < n; k++ {
			if _, err := HouseholderStep(ext, v, beta, k); err != nil {
				return false
			}
			// The invariant must hold after every reflection.
			for i := 0; i < n; i++ {
				s := 0.0
				for j := 0; j < n; j++ {
					s += ext.At(i, j)
				}
				if math.Abs(s-ext.At(i, n)) > 1e-8*float64(n) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
