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

// CheckProduct is the replicated O(n²) verification pass behind the
// DCRFT-style verify-vote integrity mode: given the regenerable operands A
// and B and a primary's claimed product C, it checks C against two probe
// vectors — the ones vector (the classic column-checksum identity
// C·e = A·(B·e), which pins any single wrong element larger than tol) and
// a seeded random vector (which defeats row-compensated corruption) —
// without ever forming A·B. Cost: four matvecs plus operand regeneration,
// ~6n² flops against the primary's n³.
func CheckProduct(a, b, c *mat.Matrix, seed uint64, tol float64) error {
	n := c.Rows
	probe := func(r []float64, name string) error {
		br := mat.MulVec(b, r)
		want := mat.MulVec(a, br)
		got := mat.MulVec(c, r)
		for i := range want {
			d := math.Abs(want[i] - got[i])
			if !(d <= tol) {
				return fmt.Errorf("%w: %s probe row %d: |Δ|=%g > tol %g",
					ErrProductMismatch, name, i, d, tol)
			}
		}
		return nil
	}
	if err := probe(mat.Ones(n), "ones"); err != nil {
		return err
	}
	return probe(mat.RandomVec(n, seed^0xa5f152ab67cd90de), "random")
}
