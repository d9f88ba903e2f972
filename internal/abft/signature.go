package abft

import (
	"encoding/binary"
	"fmt"
	"math"

	"coopabft/internal/mat"
)

// This file defines THE canonical answer signature — the single definition
// of "same answer" shared by replica voting, the jobs API's digest field,
// and the load generator's client-side verification. The signature is
// FNV-1a over the answer's IEEE-754 bit patterns (little-endian, in chunk
// order), never over formatted floats: two answers are the same iff they
// are bit-identical, which is exactly the contract the deterministic
// kernels guarantee across honest replicas.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// AnswerSig fingerprints an answer given as ordered float64 chunks (matrix
// rows, a solution vector, ...). It is the exported canonical signature
// helper: every response-equality check in the system routes through it or
// through a wrapper of it (BitDigest, SameAnswer), so vote, jobs, and
// failover all agree on what "same answer" means.
func AnswerSig(chunks ...[]float64) string {
	h := uint64(fnvOffset64)
	var buf [8]byte
	for _, chunk := range chunks {
		for _, v := range chunk {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			for _, b := range buf {
				h ^= uint64(b)
				h *= fnvPrime64
			}
		}
	}
	return fmt.Sprintf("%016x", h)
}

// SameAnswer reports whether two canonical signatures denote the same
// answer. Empty signatures never match anything — an absent fingerprint
// must not accidentally agree with another absent fingerprint.
func SameAnswer(a, b string) bool { return a != "" && a == b }

// ErrProductMismatch reports a claimed GEMM product that fails the cheap
// verification pass — the verify-vote verdict against a lying primary.
var ErrProductMismatch = fmt.Errorf("abft: claimed product fails checksum verification")

// SeedProbe is the random probe CheckProduct derives from a request seed.
// Whoever knows the seed knows it, the node that computed the product
// included, so it catches faults but not a node that chooses its answer.
func SeedProbe(n int, seed uint64) []float64 { return mat.RandomVec(n, seed^0xa5f152ab67cd90de) }

// CheckProduct checks a claimed product C of the regenerable operands A and
// B with two probes, the ones vector and SeedProbe(seed): the projections
// ProbeBlock takes, over a matrix, then CheckProbes.
func CheckProduct(a, b, c *mat.Matrix, seed uint64, tol float64) error {
	r := SeedProbe(c.Rows, seed)
	return CheckProbes(a, b, r, mat.MulVec(c, mat.Ones(c.Rows)), mat.MulVec(c, r), tol)
}

// CheckProbes is the verifier's half of Freivalds' check: it compares a
// claimed product's projections ce = C·e (the column-checksum identity, which
// pins any single wrong element larger than tol) and cr = C·r with A·(B·e)
// and A·(B·r), in four matvecs, never forming A·B or seeing C. With r drawn
// after C was fixed, a wrong C passes only if its error is orthogonal to r.
func CheckProbes(a, b *mat.Matrix, r, ce, cr []float64, tol float64) error {
	for k, x := range [2][]float64{mat.Ones(len(r)), r} {
		want, claim := mat.MulVec(a, mat.MulVec(b, x)), [2][]float64{ce, cr}[k]
		for i := range want {
			if d := math.Abs(want[i] - claim[i]); !(d <= tol) {
				return fmt.Errorf("%w: %s probe row %d: |Δ|=%g > tol %g",
					ErrProductMismatch, [2]string{"ones", "random"}[k], i, d, tol)
			}
		}
	}
	return nil
}

// ProbeBlock reads a claimed n×n product in its PackBlock form once, without
// unpacking it, and returns its canonical signature (AnswerSig over its rows)
// and its projections C·e and C·r, each bit for bit what mat.MulVec computes.
// A payload of any other length than 8n² is refused with ErrBadSize.
func ProbeBlock(packed []byte, n int, r []float64) (sig string, ce, cr []float64, err error) {
	if !holdsBlock(len(packed), n, n) || len(r) != n {
		return "", nil, nil, fmt.Errorf("%w: %d-byte payload for a %dx%d product", ErrBadSize, len(packed), n, n)
	}
	e := mat.Ones(n)
	ce, cr = make([]float64, n), make([]float64, n)
	h := uint64(fnvOffset64)
	for i := range ce {
		se, sr := 0.0, 0.0
		for j, w := range r {
			bs := packed[8*(i*n+j):][:8]
			for _, b := range bs {
				h ^= uint64(b)
				h *= fnvPrime64
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(bs))
			se += v * e[j]
			sr += v * w
		}
		ce[i], cr[i] = se, sr
	}
	return fmt.Sprintf("%016x", h), ce, cr, nil
}
