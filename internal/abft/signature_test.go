package abft

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"coopabft/internal/mat"
)

// TestProbeBlockMatchesUnpacked: the gateway's one pass over a shipped
// product gives, bit for bit, the signature of the unpacked rows and
// mat.MulVec's projections, over odd shapes, −0, subnormals, infinities and
// NaN payloads in the product and in the probe; and it refuses every length
// but 8n², and a probe or a projection of the wrong length, as ErrBadSize.
func TestProbeBlockMatchesUnpacked(t *testing.T) {
	specials := []float64{
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1060, 0x1.fffffp-1023,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.Float64frombits(0x7ff8_dead_beef_0001), // quiet NaN with a payload
		math.Float64frombits(0xfff0_0000_0000_0001), // signalling NaN, sign bit set
	}
	for _, n := range []int{1, 3, 7, 33, 129} {
		for trial := 0; trial < 4; trial++ {
			seed := uint64(100*n + trial)
			c := mat.Random(n, n, seed)
			r := mat.RandomVec(n, seed+1)
			// Trial 0 is the honest shape, finite and in [0, 1); the others
			// plant trial·n specials, and trial 3 one in the probe too.
			pick := mat.RandomVec(2*trial*n, seed+2)
			for k := 0; k < trial*n; k++ {
				c.Data[int(pick[2*k]*float64(n*n))] = specials[int(pick[2*k+1]*float64(len(specials)))]
			}
			if trial == 3 {
				r[n/2] = specials[int(seed)%len(specials)]
			}
			ce, cr := make([]float64, n), make([]float64, n)
			sig, err := ProbeBlock(PackBlock(c), n, r, ce, cr)
			if err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
			u, err := UnpackBlock(n, n, PackBlock(c))
			if err != nil {
				t.Fatal(err)
			}
			if want := BitDigest(u); sig != want {
				t.Fatalf("n=%d trial %d: signature %s, AnswerSig over the rows %s", n, trial, sig, want)
			}
			for name, pair := range map[string][2][]float64{
				"C·e": {ce, mat.MulVec(u, mat.Ones(n))},
				"C·r": {cr, mat.MulVec(u, r)},
			} {
				for i := range pair[1] {
					if got, want := math.Float64bits(pair[0][i]), math.Float64bits(pair[1][i]); got != want {
						t.Fatalf("n=%d trial %d: %s row %d = %#x, mat.MulVec gives %#x", n, trial, name, i, got, want)
					}
				}
			}
		}
		packed := PackBlock(mat.Random(n, n, 1))
		r, ce, cr := mat.RandomVec(n, 2), make([]float64, n), make([]float64, n)
		for _, bad := range []struct {
			b         []byte
			r, ce, cr []float64
		}{
			{packed[:len(packed)-8], r, ce, cr}, {append(packed, 0), r, ce, cr}, {packed, r[:n-1], ce, cr}, {nil, r, ce, cr},
			{packed, r, ce[:n-1], cr}, {packed, r, ce, append(cr, 0)},
		} {
			if _, err := ProbeBlock(bad.b, n, bad.r, bad.ce, bad.cr); !errors.Is(err, ErrBadSize) {
				t.Errorf("n=%d: %d bytes, a %d-value probe and %d, %d projection slots: err = %v, want ErrBadSize",
					n, len(bad.b), len(bad.r), len(bad.ce), len(bad.cr), err)
			}
		}
	}
}

// TestCheckProductVerdicts: CheckProduct accepts the true product at the
// verify route's tolerance, refutes a single wrong element through the ones
// probe and a row-compensated pair through the random one, and passes a lie
// built in the null space of both of its probes: a probe derived from the
// request seed catches faults, not a node that knows the seed. CheckProbes
// with a probe drawn after the lie was told refutes that same lie.
func TestCheckProductVerdicts(t *testing.T) {
	const n, seed = 48, 21
	a, b := mat.Random(n, n, seed), mat.Random(n, n, seed+1)
	c := mat.Mul(a, b)
	tol := BlockTol(n)
	if err := CheckProduct(a, b, c, seed, tol); err != nil {
		t.Fatalf("true product refuted: %v", err)
	}
	lie := func(deltas map[int]float64) *mat.Matrix {
		m := c.Clone()
		for j, d := range deltas {
			m.Add(5, j, d)
		}
		return m
	}
	if err := CheckProduct(a, b, lie(map[int]float64{7: 2.5}), seed, tol); !errors.Is(err, ErrProductMismatch) ||
		!strings.Contains(err.Error(), "ones probe row 5") {
		t.Errorf("one wrong element: %v", err)
	}
	if err := CheckProduct(a, b, lie(map[int]float64{7: 2.5, 8: -2.5}), seed, tol); !errors.Is(err, ErrProductMismatch) ||
		!strings.Contains(err.Error(), "random probe row 5") {
		t.Errorf("row-compensated pair: %v", err)
	}
	// δ = e × q on three entries: Σδ = 0 and Σ q·δ = 0.
	q := SeedProbe(n, seed)
	d := [3]float64{q[2] - q[1], q[0] - q[2], q[1] - q[0]}
	s := 3 / min(math.Abs(d[0]), math.Abs(d[1]), math.Abs(d[2]))
	adaptive := lie(map[int]float64{0: s * d[0], 1: s * d[1], 2: s * d[2]})
	if err := CheckProduct(a, b, adaptive, seed, tol); err != nil {
		t.Errorf("a lie orthogonal to both seed-derived probes was refuted (%v): the test no longer shows what they miss", err)
	}
	r := mat.RandomVec(n, 0x5eed)
	if err := CheckProbes(nil, a, b, r, mat.MulVec(adaptive, mat.Ones(n)), mat.MulVec(adaptive, r), tol); !errors.Is(err, ErrProductMismatch) ||
		!strings.Contains(err.Error(), "random probe row 5") {
		t.Errorf("a probe the liar did not know: %v", err)
	}
}

// TestSigStringIsPercent016x: a signature's text is the string fmt's "%016x"
// makes of its hash, for every hex digit in every position, the hash's
// extremes, and 256 scrambled hashes.
func TestSigStringIsPercent016x(t *testing.T) {
	hs := []uint64{0, 1, math.MaxUint64, fnvOffset64, fnvPrime64}
	for pos := 0; pos < 64; pos += 4 {
		for d := uint64(0); d < 16; d++ {
			hs = append(hs, d<<pos)
		}
	}
	for _, v := range mat.RandomVec(256, 11) {
		hs = append(hs, math.Float64bits(v)*0x9e3779b97f4a7c15)
	}
	for _, h := range hs {
		if got, want := sigString(h), fmt.Sprintf("%016x", h); got != want {
			t.Fatalf("sigString(%#x) = %q, want %q", h, got, want)
		}
	}
}
