package serve

import (
	"errors"
	"math/bits"
	"strings"
	"testing"

	"coopabft/internal/abft"
)

// TestCGGridAreaOverflow: a CG grid whose area does not fit in an int (the
// three below are 2⁶⁴, which wraps to 0) is refused, not admitted with Size() == 0, both under the interactive limits
// (the sync route and the gateway) and under the job limits parseLongTask
// applies. Only the parsers run here: such a grid must never reach a node.
func TestCGGridAreaOverflow(t *testing.T) {
	cfg := Config{}.withDefaults()
	for _, g := range [][2]int{{4, 1 << 62}, {1 << 32, 1 << 32}, {1 << 33, 1 << 31}} {
		for _, sw := range [][2]int{g, {g[1], g[0]}} {
			nx, ny := sw[0], sw[1]
			for name, l := range map[string]Limits{"request": cfg.Limits(), "job": cfg.jobLimits()} {
				if p, err := ParseRequest(l, Request{Kernel: "cg", NX: nx, NY: ny}); !errors.Is(err, ErrBadRequest) {
					t.Errorf("%s limits: cg %dx%d admitted with size %d (err %v)", name, nx, ny, p.Size(), err)
				}
			}
			if p, _, err := parseLongTask(cfg.jobLimits(), LongTask{Kernel: "cg", NX: nx, NY: ny}); !errors.Is(err, ErrBadRequest) {
				t.Errorf("long task: cg %dx%d admitted with size %d (err %v)", nx, ny, p.Size(), err)
			}
		}
	}
	// The bound itself is unchanged: area MaxN²/16 is in, one column more is out.
	l := cfg.Limits()
	area := l.MaxN * l.MaxN / 16
	if _, err := ParseRequest(l, Request{Kernel: "cg", NX: area / 4, NY: 4}); err != nil {
		t.Errorf("cg %dx4 at the area cap refused: %v", area/4, err)
	}
	if _, err := ParseRequest(l, Request{Kernel: "cg", NX: area/4 + 1, NY: 4}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("cg %dx4 past the area cap: err = %v, want ErrBadRequest", area/4+1, err)
	}
}

// TestAdmissionMatrix pins every pairing admission decides, kernel × verify
// mode × integrity × dtype with each named explicitly (54 cells), and that
// an admitted request parses without allocating. admitted lists the cells
// admission accepts; the other 36 are 400s. The four marked false are full
// verification on the kernels whose workloads run notified only: refused
// rather than answered "full" over a notified run. An f32 refusal names
// the dtype, whatever else the cell pairs it with. Kernel.String is pinned
// for valid and invalid values alike, and Admits refuses an invalid Kernel
// with a 400.
func TestAdmissionMatrix(t *testing.T) {
	admitted := map[string]bool{
		"gemm/notified/none/f64": true, "gemm/notified/vote/f64": true, "gemm/notified/verify-vote/f64": true,
		"gemm/full/none/f64": true, "gemm/full/vote/f64": true, "gemm/full/verify-vote/f64": true,
		"gemm/fused/none/f64": true, "gemm/fused/vote/f64": true, "gemm/fused/verify-vote/f64": true,
		"gemm/fused/none/f32":        true,
		"cholesky/notified/none/f64": true, "cholesky/notified/vote/f64": true,
		"cg/notified/none/f64": true, "cg/notified/vote/f64": true,
		"cholesky/full/none/f64": false, "cholesky/full/vote/f64": false,
		"cg/full/none/f64": false, "cg/full/vote/f64": false,
	}
	l := Config{}.withDefaults().Limits()
	cells := 0
	for _, k := range []string{"gemm", "cholesky", "cg"} {
		for _, m := range []string{"notified", "full", "fused"} {
			for _, i := range []string{"none", "vote", "verify-vote"} {
				for _, d := range []string{"f64", "f32"} {
					cells++
					cell := k + "/" + m + "/" + i + "/" + d
					p, err := ParseRequest(l, Request{Kernel: k, VerifyMode: m, Integrity: i, Dtype: d})
					if err != nil && !errors.Is(err, ErrBadRequest) {
						t.Fatalf("%s: refusal is not ErrBadRequest: %v", cell, err)
					}
					if (err == nil) != admitted[cell] {
						t.Errorf("%s: admitted = %v (%v), want %v", cell, err == nil, err, admitted[cell])
					}
					if err != nil && d == "f32" && !strings.Contains(err.Error(), "dtype f32") {
						t.Errorf("%s: refusal does not name the dtype asked for: %v", cell, err)
					}
					if err == nil && (p.Mode.String() != m || p.Integrity.String() != i || p.Dtype.String() != d) {
						t.Errorf("%s: parsed as %s/%s/%s", cell, p.Mode, p.Integrity, p.Dtype)
					}
				}
			}
		}
	}
	if cells != 54 {
		t.Fatalf("%d cells, want 54", cells)
	}

	for k, want := range map[Kernel]string{KernelGEMM: "gemm", KernelCholesky: "cholesky", KernelCG: "cg",
		Kernel(3): "Kernel(3)", Kernel(-1): "Kernel(-1)"} {
		if got := k.String(); got != want {
			t.Errorf("Kernel(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	for _, k := range []Kernel{Kernel(3), Kernel(-1)} {
		if err := k.Admits(abft.NotifiedVerify, IntegrityNone, DtypeF64); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Kernel(%d).Admits = %v, want ErrBadRequest", int(k), err)
		}
	}

	for _, r := range []Request{{Kernel: "gemm", N: 16, Dtype: "f32"}, {Kernel: "gemm", Integrity: "verify-vote"},
		{Kernel: "cholesky"}, {Kernel: "cg"}} {
		if _, err := ParseRequest(l, r); err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if a := testing.AllocsPerRun(100, func() { _, _ = ParseRequest(l, r) }); a != 0 {
			t.Errorf("%+v: ParseRequest allocates %.0f times, want 0", r, a)
		}
	}
}

// FuzzParseRequest: for any wire fields, ParseRequest never panics and
// refuses only with ErrBadRequest. What it accepts names a served kernel; a
// gemm/cholesky size in [8, MaxN]; a cg grid of sides ≥ 4 whose area, taken
// without overflow, is at most MaxN²/16; a fault count in [0, MaxFaults];
// full and fused verification, verify-vote and f32 only on gemm; and
// replicas only with an integrity mode.
func FuzzParseRequest(f *testing.F) {
	l := Config{}.withDefaults().Limits()
	f.Add("cg", 0, 4, 1<<62, "", uint64(1), 0, "", "", "", 0, "", "", "")
	f.Add("gemm", 128, 0, 0, "P_CK+P_SD", uint64(3), 2, "chip-failure", "fused", "vote", 3, "gold", "speculative", "")
	f.Fuzz(func(t *testing.T, kernel string, n, nx, ny int, strategy string, seed uint64, faults int,
		faultKind, verifyMode, integrity string, replicas int, tenant, priority, dtype string) {
		req := Request{Kernel: kernel, N: n, NX: nx, NY: ny, Strategy: strategy, Seed: seed,
			Faults: faults, FaultKind: faultKind, VerifyMode: verifyMode, Integrity: integrity,
			Replicas: replicas, Tenant: tenant, Priority: priority, Dtype: dtype}
		p, err := ParseRequest(l, req)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refusal is not ErrBadRequest: %v", err)
			}
			return
		}
		switch p.Kernel {
		case KernelGEMM, KernelCholesky:
			if p.N < 8 || p.N > l.MaxN {
				t.Fatalf("accepted %s n=%d outside [8, %d]", p.Kernel, p.N, l.MaxN)
			}
		case KernelCG:
			hi, area := bits.Mul64(uint64(p.NX), uint64(p.NY))
			if p.NX < 4 || p.NY < 4 || hi != 0 || area > uint64(l.MaxN*l.MaxN/16) || p.Size() != int(area) {
				t.Fatalf("accepted cg grid %dx%d (size %d) past [4x4, area %d]", p.NX, p.NY, p.Size(), l.MaxN*l.MaxN/16)
			}
		default:
			t.Fatalf("accepted kernel %v from %q", p.Kernel, kernel)
		}
		if p.Faults < 0 || p.Faults > l.MaxFaults {
			t.Fatalf("accepted faults=%d outside [0, %d]", p.Faults, l.MaxFaults)
		}
		if (p.Mode != abft.NotifiedVerify || p.Integrity == IntegrityVerifyVote || p.Dtype == DtypeF32) && p.Kernel != KernelGEMM {
			t.Fatalf("accepted mode %s integrity %s dtype %s on kernel %s", p.Mode, p.Integrity, p.Dtype, p.Kernel)
		}
		if p.Replicas != 0 && p.Integrity == IntegrityNone {
			t.Fatalf("accepted replicas=%d without an integrity mode", p.Replicas)
		}
	})
}
