package abft

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"coopabft/internal/mat"
)

func sameBits(a, b *mat.Matrix) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && BitDigest(a) == BitDigest(b)
}

// arenaEnv is Standalone with an arena whose pool classes were just left
// dirty, so a kernel that relied on fresh-from-the-heap zeros would see NaN.
func arenaEnv(n int) Env {
	var dirt mat.Arena
	for i := 0; i < 6; i++ {
		m := dirt.New(n+1, n+1)
		for k := range m.Data {
			m.Data[k] = math.NaN()
		}
	}
	dirt.Release()
	env := Standalone()
	env.Arena = new(mat.Arena)
	return env
}

// TestNewDGEMMEncodingBits: operands are generated straight into Ac and Br,
// on the heap or in an arena. Either way every bit, checksum row and column
// included, equals the encoding built the way it used to be: two mat.Random
// matrices copied in, row sums by mat.Sum, column sums down each column.
func TestNewDGEMMEncodingBits(t *testing.T) {
	for _, n := range []int{2, 17, 64, 129} {
		const seed = 11
		a, b := mat.Random(n, n, seed), mat.Random(n, n, seed+1)
		ac, br := mat.New(n+1, n), mat.New(n, n+1)
		for i := 0; i < n; i++ {
			copy(ac.Row(i), a.Row(i))
			copy(br.Row(i)[:n], b.Row(i))
			br.Set(i, n, mat.Sum(b.Row(i)))
		}
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += a.At(i, j)
			}
			ac.Set(n, j, s)
		}
		for name, env := range map[string]Env{"heap": Standalone(), "arena": arenaEnv(n)} {
			d := mustDGEMM(t, env, n, seed)
			if !sameBits(d.Ac.Matrix, ac) || !sameBits(d.Br.Matrix, br) {
				t.Errorf("n=%d %s: encoded operands differ from the mat.Random reference", n, name)
			}
			if d.Cf.MaxAbs() != 0 || mat.NormInf(d.scratch.Data) != 0 || math.IsNaN(d.Cf.At(n, n)) {
				t.Errorf("n=%d %s: Cf or scratch not zero at construction", n, name)
			}
			d.Mode = FusedVerify
			if err := d.RunFrom(0); err != nil { // the ladder's entry: no Cf.Zero()
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if err := d.CheckResult(); err != nil {
				t.Errorf("n=%d %s: %v", n, name, err)
			}
			env.Arena.Release()
		}
	}
}

// TestKernelsOnArenaMatchHeap: Cholesky and CG build, run and check
// themselves identically on dirty pooled storage and on the heap.
func TestKernelsOnArenaMatchHeap(t *testing.T) {
	const n = 96
	heap, pooled := NewCholesky(Standalone(), n, 5), NewCholesky(arenaEnv(n), n, 5)
	if !sameBits(heap.A.Matrix, pooled.A.Matrix) {
		t.Fatal("Cholesky problem differs between heap and arena")
	}
	orig := heap.A.Matrix.Clone()
	for _, c := range []*Cholesky{heap, pooled} {
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckResult(orig); err != nil {
			t.Fatal(err)
		}
	}
	if !sameBits(heap.L(), pooled.L()) {
		t.Error("Cholesky factor differs between heap and arena")
	}

	h, p := NewCG(Standalone(), 12, 9, 5), NewCG(arenaEnv(12*9), 12, 9, 5)
	for _, c := range []*CG{h, p} {
		if out, err := c.Run(); err != nil || !out.Converged {
			t.Fatalf("CG: %+v, %v", out, err)
		}
	}
	for i, v := range h.X() {
		if math.Float64bits(v) != math.Float64bits(p.X()[i]) {
			t.Fatalf("CG solution differs at %d between heap and arena", i)
		}
	}
	if h.TrueResidual() != p.TrueResidual() {
		t.Error("CG residual differs between heap and arena")
	}
}

// TestDGEMMDormantAccounting: with nobody listening the accounting walk is
// replaced by its closed form. The op buckets (and the product) must be what
// the walk itself reports to a listener that only counts.
func TestDGEMMDormantAccounting(t *testing.T) {
	for _, n := range []int{17, 64, 128} {
		for _, mode := range []VerifyMode{FullVerify, NotifiedVerify, FusedVerify} {
			run := func(env Env) *DGEMM {
				d := mustDGEMM(t, env, n, 3)
				d.Mode, d.Block = mode, 16
				if err := d.Run(); err != nil {
					t.Fatal(err)
				}
				return d
			}
			quiet := Standalone()
			if !quiet.Mem.Dormant() {
				t.Fatal("a standalone Env's Memory is not dormant")
			}
			heard := Standalone()
			touches := 0
			heard.Mem.Probe = func(uint64, bool) { touches++ }
			dq, dh := run(quiet), run(heard)
			if touches == 0 {
				t.Fatalf("n=%d %v: the probe heard nothing; the walk did not run", n, mode)
			}
			if dq.Ops != dh.Ops {
				t.Errorf("n=%d %v: dormant ops %+v, walked ops %+v", n, mode, dq.Ops, dh.Ops)
			}
			if !sameBits(dq.Cf.Matrix, dh.Cf.Matrix) {
				t.Errorf("n=%d %v: product differs between dormant and walked runs", n, mode)
			}
		}
	}
}

// TestCGDormantMatvec: with nobody listening matvec runs as the plain CSR
// kernel. A solve, clean or with a residual element hit mid-run, must end
// with the bits, op buckets, iteration count, recoveries and residual of the
// instrumented walk a counting listener hears. The stencil's values are
// built straight into the metered cg.A.val storage, equal to the heap
// stencil's bit for bit.
func TestCGDormantMatvec(t *testing.T) {
	for _, g := range [][2]int{{4, 4}, {17, 9}, {24, 24}} {
		nx, ny := g[0], g[1]
		heapA := mat.Poisson2D(nx, ny)
		for _, mode := range []VerifyMode{FullVerify, NotifiedVerify} {
			for _, hit := range []bool{false, true} {
				run := func(env Env) (*CG, CGOutcome) {
					c := NewCG(env, nx, ny, 7)
					c.Mode = mode
					if hit {
						c.OnIteration = func(iter int) {
							if iter == 3 {
								c.R()[nx] += 1e3
							}
						}
					}
					out, err := c.Run()
					if err != nil {
						t.Fatal(err)
					}
					return c, out
				}
				quiet := Standalone()
				heard := Standalone()
				touches := 0
				heard.Mem.Probe = func(uint64, bool) { touches++ }
				cq, oq := run(quiet)
				ch, oh := run(heard)
				tag := fmt.Sprintf("%dx%d %v hit=%v", nx, ny, mode, hit)
				if touches == 0 {
					t.Fatalf("%s: the probe heard nothing; the walk did not run", tag)
				}
				if cq.Ops != ch.Ops || cq.Recoveries != ch.Recoveries || oq != oh {
					t.Errorf("%s: dormant %+v %d recoveries %+v, walked %+v %d recoveries %+v",
						tag, cq.Ops, cq.Recoveries, oq, ch.Ops, ch.Recoveries, oh)
				}
				if hit && mode == FullVerify && cq.Recoveries == 0 {
					t.Errorf("%s: the residual hit was never recovered", tag)
				}
				if AnswerSig(cq.X()) != AnswerSig(ch.X()) {
					t.Errorf("%s: solution bits differ between dormant and walked runs", tag)
				}
				if &cq.A.Val[0] != &cq.aVal.Data[0] || AnswerSig(cq.A.Val) != AnswerSig(heapA.Val) {
					t.Errorf("%s: A.Val is not cg.A.val's storage or differs from mat.Poisson2D", tag)
				}
			}
		}
	}
}

// TestCholeskyTriangularOracleVerdicts: the oracle reconstructs only the
// lower triangle of L·Lᵀ, and only the products L's zeros do not annihilate.
// Its verdict must be the full product's — mat.Mul against a materialised
// transpose, compared over the whole matrix at the same tolerance — on a
// clean factor and on factors with one element moved by amounts that
// straddle the tolerance or replaced by a non-finite value, at either
// parallelism.
func TestCholeskyTriangularOracleVerdicts(t *testing.T) {
	fullVerdict := func(c *Cholesky, orig *mat.Matrix) bool {
		l := c.L()
		return mat.Equal(mat.Mul(l, l.Transpose()), orig, c.Tol*10)
	}
	for _, par := range []int{1, 2} {
		old := mat.SetParallelism(par)
		for _, n := range []int{48, 128, 150} {
			c, orig := cholProblem(n, uint64(n))
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if !fullVerdict(c, orig) || c.CheckResult(orig) != nil {
				t.Fatalf("n=%d par=%d: clean factor rejected", n, par)
			}
			accepted, rejected := 0, 0
			for _, at := range [][2]int{{n - 1, 0}, {n / 2, n / 2}, {n - 1, n - 2}, {70 % n, 3}} {
				i, j := at[0], at[1]
				clean := c.A.At(i, j)
				// Moving L[i][j] by δ moves (L·Lᵀ)[i][k] by δ·L[k][j]; the
				// largest such factor puts δ* at the tolerance.
				big := 0.0
				for k := j; k < n; k++ {
					big = math.Max(big, math.Abs(c.A.At(k, j)))
				}
				dstar := c.Tol * 10 / (2 * big)
				deltas := []float64{dstar * 1e-3, dstar / 4, dstar / 2, dstar, 2 * dstar, 4 * dstar, dstar * 1e3}
				for f := 0.9; f <= 1.1; f += 0.01 { // a fine comb across the boundary
					deltas = append(deltas, f*dstar, 2*f*dstar)
				}
				deltas = append(deltas, nonFinite...)
				for _, delta := range deltas {
					c.A.Set(i, j, clean+delta)
					want, got := fullVerdict(c, orig), c.CheckResult(orig) == nil
					if want != got {
						t.Errorf("n=%d par=%d: L[%d][%d]+=%g: triangular oracle accepts=%v, full product accepts=%v",
							n, par, i, j, delta, got, want)
					}
					if got {
						accepted++
					} else {
						rejected++
					}
				}
				c.A.Set(i, j, clean)
			}
			if accepted == 0 || rejected == 0 {
				t.Errorf("n=%d par=%d: perturbations did not straddle the tolerance (%d accepted, %d rejected)",
					n, par, accepted, rejected)
			}
		}
		mat.SetParallelism(old)
	}
}

// dirtyArena returns an arena whose pool classes of both element types, at
// the sizes an n×n GEMM32 draws, were just left full of NaN.
func dirtyArena(n int) *mat.Arena {
	var dirt mat.Arena
	for i := 0; i < 6; i++ {
		m32 := mat.NewIn[float32](&dirt, n, n)
		for k := range m32.Data {
			m32.Data[k] = float32(math.NaN())
		}
		for _, v := range [][]float64{dirt.Floats(8*n + 64), dirt.Floats(n * n)} {
			for k := range v {
				v[k] = math.NaN()
			}
		}
	}
	dirt.Release()
	return new(mat.Arena)
}

// TestGEMM32OnArenaMatchesHeap: NewGEMM32 generates its operands in place,
// on the heap or in an arena whose buffers come back dirty. Either way the
// operands and their encodings equal, bit for bit, what the old construction
// gave (two mat.Random32 matrices, column sums down ascending rows, row sums
// left to right), and a clean run, a run with a flipped C element and a run
// with a flipped operand element end in the same C bits, corrections, faults
// and error as that construction's.
func TestGEMM32OnArenaMatchesHeap(t *testing.T) {
	flip := func(d []float32, idx int) {
		d[idx] = math.Float32frombits(math.Float32bits(d[idx]) ^ (1 << 30))
	}
	plants := map[string]func(g *GEMM32){
		"clean": func(g *GEMM32) {},
		"c-flip": func(g *GEMM32) {
			g.OnPanel = func(p int) {
				if p == 1 {
					flip(g.C.Data, 3*g.C.Stride+5)
				}
			}
		},
		"a-flip": func(g *GEMM32) {
			g.OnPanel = func(p int) {
				if p == 1 {
					flip(g.A.Data, 2*g.A.Stride+g.K-1) // ahead of the panel cursor
				}
			}
		},
	}
	for _, n := range []int{2, 33, 64, 192} {
		const seed = 21
		a, b := mat.Random32(n, n, seed), mat.Random32(n, n, seed+1)
		aCol, bRow := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			for p := 0; p < n; p++ {
				aCol[p] += float64(a.At(i, p))
				bRow[i] += float64(b.At(i, p))
			}
		}
		for plant, arm := range plants {
			if n < 64 && plant != "clean" {
				continue // one panel: nothing is ahead of the cursor
			}
			ref, err := newGEMM32FromMatrices(a.Clone(), b.Clone())
			if err != nil {
				t.Fatal(err)
			}
			arm(ref)
			refErr := ref.Run()
			if (plant == "c-flip") != (len(ref.Corrections) > 0) || (plant == "a-flip") != (refErr != nil) {
				t.Fatalf("n=%d %s: reference run ended with %d corrections, err %v", n, plant, len(ref.Corrections), refErr)
			}
			for name, arena := range map[string]*mat.Arena{"heap": nil, "arena": dirtyArena(n)} {
				g, err := NewGEMM32In(arena, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("n=%d %s %s", n, plant, name)
				if mat32Digest(g.A) != mat32Digest(a) || mat32Digest(g.B) != mat32Digest(b) {
					t.Errorf("%s: operands differ from mat.Random32", tag)
				}
				if AnswerSig(g.aColSum) != AnswerSig(aCol) || AnswerSig(g.bRowSum) != AnswerSig(bRow) {
					t.Errorf("%s: operand encodings differ from the reference sums", tag)
				}
				arm(g)
				gErr := g.Run()
				if mat32Digest(g.C) != mat32Digest(ref.C) {
					t.Errorf("%s: product differs from the reference construction's", tag)
				}
				if !reflect.DeepEqual(g.Corrections, ref.Corrections) || !reflect.DeepEqual(g.Faults, ref.Faults) {
					t.Errorf("%s: corrections %+v faults %+v, reference %+v %+v", tag, g.Corrections, g.Faults, ref.Corrections, ref.Faults)
				}
				if fmt.Sprint(gErr) != fmt.Sprint(refErr) {
					t.Errorf("%s: error %v, reference %v", tag, gErr, refErr)
				}
				if gErr == nil {
					if err := g.CheckPristine(seed); err != nil {
						t.Errorf("%s: %v", tag, err)
					}
				}
				arena.Release()
			}
		}
	}
}

// mat32Digest fingerprints a float32 matrix by its exact bits.
func mat32Digest(m *mat.Matrix32) string { return BitDigest(m.To64()) }

// TestGEMM32VerifiesEveryPanel counts the verifications of a K=192 run by
// what they catch: Block is 32, so there are six panel boundaries, and a C
// element flipped at the top of panel p must be reported by boundary p
// itself, not a later one, whether the problem lives on the heap or in an
// arena.
func TestGEMM32VerifiesEveryPanel(t *testing.T) {
	for name, arena := range map[string]*mat.Arena{"heap": nil, "arena": dirtyArena(192)} {
		for p := 0; p < 6; p++ {
			g, err := NewGEMM32In(arena, 192, 5)
			if err != nil {
				t.Fatal(err)
			}
			if g.Block != 32 || g.Panels() != 6 {
				t.Fatalf("%s: Block %d, %d panels; want 32 and 6", name, g.Block, g.Panels())
			}
			tops := 0
			g.OnPanel = func(panel int) {
				tops++
				if panel == p {
					g.C.Data[7*g.C.Stride+11] += 1000
				}
			}
			if err := g.Run(); err != nil {
				t.Fatalf("%s panel %d: %v", name, p, err)
			}
			if tops != 6 || len(g.Corrections) != 1 || len(g.Faults) == 0 || g.Faults[0].Panel != p {
				t.Errorf("%s: flip at the top of panel %d of %d: corrections %+v, faults %+v", name, p, tops, g.Corrections, g.Faults)
			}
		}
		arena.Release()
	}
}
