package abft

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestLocateDual pins the dual-checksum rule every row- or column-coded
// kernel (FT-LU, FT-QR, FT-Cholesky) reads its mismatches with.
func TestLocateDual(t *testing.T) {
	const tol = 1e-6
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name          string
		delta, delta2 float64
		lo, hi        int
		want          dualVerdict
		at            int
		bad           bool // ErrUncorrectable
	}{
		{name: "clean", delta: 0, delta2: 0, hi: 8, want: dualClean},
		{name: "clean at tol", delta: -tol, delta2: tol, hi: 8, want: dualClean},
		{name: "weighted, exact zero delta", delta: 0, delta2: 5, hi: 8, want: dualWeighted},
		{name: "weighted, delta at tol", delta: tol, delta2: -3, hi: 8, want: dualWeighted},
		{name: "element", delta: 2, delta2: 8, hi: 8, want: dualElement, at: 3},
		{name: "element, negative delta", delta: -0.5, delta2: -0.5, hi: 8, want: dualElement, at: 0},
		{name: "slack upper edge", delta: 4, delta2: 17, hi: 8, want: dualElement, at: 3},
		{name: "slack lower edge", delta: 4, delta2: 15, hi: 8, want: dualElement, at: 3},
		{name: "past slack upper edge", delta: 100, delta2: 426, hi: 8, bad: true},
		{name: "past slack lower edge", delta: 100, delta2: 374, hi: 8, bad: true},
		{name: "range low end", delta: 1, delta2: 3, lo: 2, hi: 5, want: dualElement, at: 2},
		{name: "below range", delta: 1, delta2: 2, lo: 2, hi: 5, bad: true},
		{name: "range high end", delta: 1, delta2: 5, lo: 2, hi: 5, want: dualElement, at: 4},
		{name: "at range end", delta: 1, delta2: 6, lo: 2, hi: 5, bad: true},
		{name: "plain", delta: 5, delta2: 0, hi: 8, want: dualPlain},
		{name: "plain, delta2 at tol", delta: 5, delta2: tol, hi: 8, want: dualPlain},
		{name: "plain +Inf", delta: inf, delta2: 0, hi: 8, want: dualPlain},
		{name: "NaN delta, clean delta2", delta: nan, delta2: 0, hi: 8, want: dualPlain},
		{name: "NaN delta", delta: nan, delta2: 4, hi: 8, bad: true},
		{name: "NaN delta2, clean delta", delta: 0, delta2: nan, hi: 8, want: dualWeighted},
		{name: "NaN delta2", delta: 5, delta2: nan, hi: 8, bad: true},
		{name: "both infinite", delta: inf, delta2: inf, hi: 8, bad: true},
	}
	for _, tc := range cases {
		v, at, err := locateDual(tc.delta, tc.delta2, tol, tc.lo, tc.hi)
		if tc.bad {
			if !errors.Is(err, ErrUncorrectable) {
				t.Errorf("%s: (%v, %d, %v), want ErrUncorrectable", tc.name, v, at, err)
			}
			continue
		}
		if err != nil || v != tc.want || (v == dualElement && at != tc.at) {
			t.Errorf("%s: (%v, %d, %v), want (%v, %d, nil)", tc.name, v, at, err, tc.want, tc.at)
		}
	}
}

// TestLocateCross pins the row/column case analysis FT-DGEMM and GEMM32
// share: which element each pattern repairs, from which line, and which
// patterns it refuses.
func TestLocateCross(t *testing.T) {
	type fixCall struct {
		r, c    int
		fromRow bool
		delta   float64
	}
	cases := []struct {
		name             string
		rowBad, colBad   []int
		rowDelta, colDel []float64
		want             []fixCall
		bad              bool
	}{
		{name: "clean"},
		{name: "one element", rowBad: []int{2}, rowDelta: []float64{3}, colBad: []int{5}, colDel: []float64{3},
			want: []fixCall{{2, 5, false, 3}}},
		{name: "row only", rowBad: []int{2}, rowDelta: []float64{4}, colBad: []int{1, 6}, colDel: []float64{1, 3},
			want: []fixCall{{2, 1, false, 1}, {2, 6, false, 3}}},
		{name: "column only", rowBad: []int{0, 4, 7}, rowDelta: []float64{1, -2, 3}, colBad: []int{3}, colDel: []float64{2},
			want: []fixCall{{0, 3, true, 1}, {4, 3, true, -2}, {7, 3, true, 3}}},
		{name: "paired by magnitude", rowBad: []int{1, 5}, rowDelta: []float64{-7, 2}, colBad: []int{0, 3}, colDel: []float64{2, 7},
			want: []fixCall{{1, 3, true, -7}, {5, 0, true, 2}}},
		{name: "unmatchable", rowBad: []int{1, 5}, rowDelta: []float64{7, 2}, colBad: []int{0, 3}, colDel: []float64{7, 9},
			want: []fixCall{{1, 0, true, 7}}, bad: true},
		{name: "2 rows, 3 columns", rowBad: []int{1, 5}, rowDelta: []float64{1, 2}, colBad: []int{0, 3, 4}, colDel: []float64{1, 1, 1},
			bad: true},
		{name: "3 rows, 2 columns", rowBad: []int{1, 5, 6}, rowDelta: []float64{1, 1, 1}, colBad: []int{0, 3}, colDel: []float64{1, 2},
			bad: true},
		{name: "columns only, no row", colBad: []int{0, 3}, colDel: []float64{1, 2}, bad: true},
		{name: "one column, no row", colBad: []int{3}, colDel: []float64{1}, bad: true},
	}
	for _, tc := range cases {
		var got []fixCall
		err := locateCross(tc.rowBad, tc.rowDelta, tc.colBad, tc.colDel,
			func(_, gap float64) bool { return gap <= 0.1 },
			func(r, c int, fromRow bool, delta float64) { got = append(got, fixCall{r, c, fromRow, delta}) })
		if tc.bad != errors.Is(err, ErrUncorrectable) || (!tc.bad && err != nil) {
			t.Errorf("%s: err = %v, want uncorrectable %v", tc.name, err, tc.bad)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fixes %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestChecksumSelfRepairRestoresRecomputedSum: a checksum that is itself
// corrupted, even to a non-finite or huge value, must come back as the
// recomputed sum of its line, not as stored − δ (which turns Inf into NaN
// and 1e300 into 0), and a second sweep must find nothing left to repair.
func TestChecksumSelfRepairRestoresRecomputedSum(t *testing.T) {
	const n = 24
	type target struct {
		name        string
		cell        func() *float64 // the checksum entry under test
		sweep       func() error
		corrections func() int
	}
	targets := func() []target {
		var out []target
		for _, col := range []int{n, n + 1} {
			l := NewLU(Standalone(), n, 5)
			out = append(out, target{"lu.Af", func() *float64 { return &l.Af.Row(3)[col] },
				func() error { return l.VerifyRows(0) }, func() int { return len(l.Corrections) }})
			q := NewQR(Standalone(), n, 6)
			out = append(out, target{"qr.Af", func() *float64 { return &q.Af.Row(3)[col] },
				q.VerifyR, func() int { return len(q.Corrections) }})
			qv := NewQR(Standalone(), n, 7)
			if err := qv.Run(); err != nil {
				t.Fatal(err)
			}
			out = append(out, target{"qr.Vf", func() *float64 { return &qv.Vf.Row(9)[col] },
				func() error { return qv.VerifyV(n) }, func() int { return len(qv.Corrections) }})
		}
		for k := 0; k < 2; k++ {
			c := NewCholesky(Standalone(), n, 8)
			v := [2]Vec{}
			v[0], v[1], _, _ = c.Checksums()
			out = append(out, target{"chol.cs", func() *float64 { return &v[k].Data[5] },
				func() error { return c.VerifyTrailing(0) }, func() int { return len(c.Corrections) }})
			cl := NewCholesky(Standalone(), n, 9)
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			vl := [2]Vec{}
			_, _, vl[0], vl[1] = cl.Checksums()
			out = append(out, target{"chol.lcs", func() *float64 { return &vl[k].Data[5] },
				func() error { return cl.VerifyL(n) }, func() int { return len(cl.Corrections) }})
		}
		return out
	}
	for _, bad := range []float64{math.Inf(1), math.NaN(), 1e300} {
		for i, tg := range targets() {
			cell := tg.cell()
			orig := *cell
			*cell = bad
			if err := tg.sweep(); err != nil {
				t.Errorf("%g into %s #%d: %v", bad, tg.name, i, err)
				continue
			}
			if math.Float64bits(*cell) != math.Float64bits(orig) {
				t.Errorf("%g into %s #%d: checksum repaired to %g, want %g", bad, tg.name, i, *cell, orig)
			}
			booked := tg.corrections()
			if booked != 1 {
				t.Errorf("%g into %s #%d: %d corrections, want 1", bad, tg.name, i, booked)
			}
			if err := tg.sweep(); err != nil || tg.corrections() != booked {
				t.Errorf("%g into %s #%d: second sweep = %v, corrections %d → %d",
					bad, tg.name, i, err, booked, tg.corrections())
			}
		}
	}
}
