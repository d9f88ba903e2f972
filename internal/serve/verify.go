package serve

import (
	"context"
	"fmt"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
)

// VerifyTask is one replicated verification unit of the DCRFT-style
// verify-vote integrity mode, in wire (JSON) form. A primary computed
// C = A·B and shipped it to the gateway, which drew r = RandomVec(n,
// ProbeSeed) no node could predict and sends Ce = C·e and Cr = C·r, 2n exact
// values instead of n². The verifier regenerates A = Random(n,n,seed) and
// B = Random(n,n,seed+1) and checks Ce and Cr against A·(B·e), A·(B·r).
type VerifyTask struct {
	Kernel    string    `json:"kernel"`
	N         int       `json:"n"`
	Seed      uint64    `json:"seed"`
	ProbeSeed uint64    `json:"probe_seed"`
	Ce        []float64 `json:"ce"`
	Cr        []float64 `json:"cr"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
}

// VerifyResult is the verifier's ballot: OK means both projections match
// the regenerated operands' within abft.BlockTol.
type VerifyResult struct {
	OK     bool    `json:"ok"`
	Reason string  `json:"reason,omitempty"`
	RunMS  float64 `json:"run_ms"`
}

// parseVerifyTask funnels a verification task through the shared admission
// entrypoint and checks it carries one value per row in each projection.
func parseVerifyTask(l Limits, t VerifyTask) (Parsed, error) {
	p, err := ParseRequest(l, Request{Kernel: t.Kernel, N: t.N, Seed: t.Seed})
	if err != nil {
		return p, err
	}
	if p.Kernel != KernelGEMM {
		return p, fmt.Errorf("%w: verify tasks support gemm only, got %s", ErrBadRequest, p.Kernel)
	}
	if len(t.Ce) != p.N || len(t.Cr) != p.N {
		return p, fmt.Errorf("%w: %d and %d probe values for a %dx%d product", ErrBadRequest, len(t.Ce), len(t.Cr), p.N, p.N)
	}
	return p, nil
}

// DoVerify admits and executes one verification task: ErrBadRequest for a
// malformed task, then the side routes' shared admission (acquire). The
// operands are regenerated on a task-scoped arena, released before returning.
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
	a, b := arena.New(p.N, p.N), arena.New(p.N, p.N)
	mat.FillRandom(a, p.Seed)
	mat.FillRandom(b, p.Seed+1)
	var res VerifyResult
	if err := abft.CheckProbes(a, b, mat.RandomVec(p.N, t.ProbeSeed), t.Ce, t.Cr, abft.BlockTol(p.N)); err != nil {
		res.Reason = err.Error()
		s.m.VerifyRefuted.Add(1)
	} else {
		res.OK = true
	}
	arena.Release()
	res.RunMS = s.verify.m.done(start)
	return res, nil
}
