package serve

import (
	"context"
	"fmt"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
)

// VerifyTask is one replicated verification unit of the DCRFT-style
// verify-vote integrity mode, in wire (JSON) form: the primary node
// computed C = A·B (with the full ladder) and claims the product whose
// exact bits are Answer with canonical signature Sig; the verifier
// regenerates the operands from the seed — A = Random(n,n,seed),
// B = Random(n,n,seed+1), the repo-wide determinism contract — and checks
// the claim with the O(n²) probe pass instead of recomputing the O(n³)
// product.
type VerifyTask struct {
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
	Seed   uint64 `json:"seed"`
	// Sig is the primary's claimed canonical answer signature.
	Sig string `json:"sig"`
	// Answer is the claimed product, row-major little-endian IEEE-754 bit
	// patterns (the PackBlock encoding), n·n·8 bytes.
	Answer    []byte `json:"answer"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// VerifyResult is the verifier's ballot: OK means the shipped bytes hash
// to the claimed signature AND pass the checksum probes against the
// regenerated operands. Sig is the signature this node computed over the
// shipped bytes — the gateway counts it alongside the primary's.
type VerifyResult struct {
	OK     bool    `json:"ok"`
	Sig    string  `json:"sig"`
	Reason string  `json:"reason,omitempty"`
	RunMS  float64 `json:"run_ms"`
}

// parseVerifyTask funnels a verification task through the shared admission
// entrypoint and checks the claimed product's shape. Nothing n²-sized is
// allocated here: a task is parsed before it is admitted, and one that waits
// for a slot or is shed should hold only the bytes its caller decoded.
func parseVerifyTask(l Limits, t VerifyTask) (Parsed, error) {
	p, err := ParseRequest(l, Request{Kernel: t.Kernel, N: t.N, Seed: t.Seed})
	if err != nil {
		return p, err
	}
	if p.Kernel != KernelGEMM {
		return p, fmt.Errorf("%w: verify tasks support gemm only, got %s", ErrBadRequest, p.Kernel)
	}
	if len(t.Answer) != 8*p.N*p.N {
		return p, fmt.Errorf("%w: %v: %d-byte answer for a %dx%d product", ErrBadRequest, abft.ErrBadSize, len(t.Answer), p.N, p.N)
	}
	return p, nil
}

// DoVerify admits and executes one verification task: ErrBadRequest for a
// malformed task, then the side routes' shared admission (acquire). The
// claimed product and the regenerated operands live in a task-scoped arena,
// released before returning: the result holds strings and a bool.
func (s *Service) DoVerify(ctx context.Context, t VerifyTask) (VerifyResult, error) {
	p, err := parseVerifyTask(s.cfg.Limits(), t)
	if err != nil {
		return VerifyResult{}, s.verify.reject(err)
	}
	_, release, err := s.acquire(ctx, &s.verify, t.TimeoutMS)
	if err != nil {
		return VerifyResult{}, err
	}
	defer release()

	start := time.Now()
	// Released on the normal return only, like a request's: buffers a panic
	// unwound through are left to the GC.
	var arena mat.Arena
	c, err := abft.UnpackBlockIn(&arena, p.N, p.N, t.Answer)
	if err != nil {
		// parseVerifyTask checked the length; nothing was allocated.
		return VerifyResult{}, s.verify.reject(fmt.Errorf("%w: %v", ErrBadRequest, err))
	}
	res := VerifyResult{Sig: abft.BitDigest(c)}
	switch {
	case !abft.SameAnswer(res.Sig, t.Sig):
		// Binding check: the shipped bytes must hash to the claimed
		// signature, or the primary's ballot and payload diverge — a lie
		// (or corruption in flight) either way.
		res.Reason = fmt.Sprintf("claimed signature %s does not match shipped answer %s", t.Sig, res.Sig)
	default:
		a, b := arena.New(p.N, p.N), arena.New(p.N, p.N)
		mat.FillRandom(a, p.Seed)
		mat.FillRandom(b, p.Seed+1)
		if err := abft.CheckProduct(a, b, c, p.Seed, abft.BlockTol(p.N)); err != nil {
			res.Reason = err.Error()
		} else {
			res.OK = true
		}
	}
	if !res.OK {
		s.m.VerifyRefuted.Add(1)
	}
	arena.Release()
	res.RunMS = s.verify.m.done(start)
	return res, nil
}
