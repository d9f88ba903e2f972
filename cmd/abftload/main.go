// Command abftload is the open-loop load generator for abftd: it sweeps
// request rate × kernel × ECC strategy × verify mode × integrity mode
// against a live daemon, injects
// faults on a seeded fraction of requests, and reports p50/p95/p99 latency
// plus the full outcome taxonomy per cell. Because the loop is open,
// overload surfaces as typed 429/503 counts instead of silently slowing
// the client down.
//
// The sweep fails (exit 1) if any completed request reports an outcome
// outside the ladder's corrected/restarted/aborted taxonomy — the
// zero-wrong-answers acceptance gate — or if transport errors occurred.
// Against a gateway, -integrity vote,verify-vote exercises the
// replica-voting tier, and -forbid-node fails the sweep if any answer
// was delivered by a named node (the lying-node gate).
//
// With -jobs, abftload instead submits async jobs through a gateway's
// /v1/jobs API and polls each to a terminal state: -job-kernel gemm shards
// across the pool (-job-verify recomputes the product locally and requires
// a bit-digest match), -job-kernel cg rides the checkpoint-streaming long
// path. The run fails unless every job finished done with zero block
// recomputes.
//
// abftload is a gate-and-sweep client only. The repository's benchmark is
// cmd/abftbench, and the fault gates (node death mid-sweep, mid-job and
// mid-solve, the lying node, the tenant flood) are Go tests that strike on
// observed state; abftload kills nothing and writes no file.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/core"
	"coopabft/internal/serve"
	"coopabft/internal/serve/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abftload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:8321", "abftd base URL")
		wait       = flag.Duration("wait", 0, "poll /healthz up to this long before starting (readiness gate)")
		rates      = flag.String("rates", "25", "comma-separated request rates (req/s)")
		kernels    = flag.String("kernels", "gemm", "comma-separated kernels (gemm,cholesky,cg)")
		strategies = flag.String("strategies", serve.DefaultStrategy.String(), "comma-separated ECC strategies (paper labels)")
		modes      = flag.String("verify-modes", "notified", "comma-separated verify modes (full,notified,fused); full and fused pair only with gemm")
		integs     = flag.String("integrity", "none", "comma-separated integrity modes (none,vote,verify-vote); verify-vote pairs only with gemm")
		replicas   = flag.Int("replicas", 0, "vote width R for non-none integrity requests (0 = gateway default)")
		forbidNode = flag.String("forbid-node", "", "comma-separated node IDs that must never deliver an answer (lying-node gate; any hit fails the sweep)")
		tenants    = flag.String("tenants", "", "comma-separated tenant streams name=priority@rate, e.g. gold=protected@10,flood=speculative@100 (empty = one anonymous default-tenant stream)")
		dtypes     = flag.String("dtypes", "f64", "comma-separated element types (f64,f32); f32 pairs only with gemm and -verify-modes fused")
		tenantDone = flag.String("tenant-min-complete", "", "comma-separated name=fraction gates: fail unless the tenant completed at least this fraction of what it sent")
		tenantShed = flag.String("tenant-min-shed", "", "comma-separated name=count gates: fail unless the tenant saw at least this many throttled+shed rejections")
		duration   = flag.Duration("duration", 2*time.Second, "send window per cell")
		requests   = flag.Int("requests", 0, "fixed request count per cell (replayable mode; 0 = send for -duration)")
		timeout    = flag.Duration("timeout", 5*time.Second, "per-request budget")
		n          = flag.Int("n", 48, "gemm/cholesky dimension")
		nx         = flag.Int("nx", 8, "CG grid x")
		ny         = flag.Int("ny", 8, "CG grid y")
		fraction   = flag.Float64("fault-fraction", 0, "seeded fraction of requests that inject faults")
		faults     = flag.Int("faults", 1, "faults per injected request")
		kindName   = flag.String("fault-kind", "single-bit", "fault kind (single-bit,double-bit,chip-failure,scattered)")
		seed       = flag.Uint64("seed", 1, "sweep seed (same seed → same request stream)")
		retry429   = flag.Int("retry-429", 0, "retries after a 429 shed, honoring Retry-After (0 = count 429s as data)")
		retryCap   = flag.Duration("retry-after-cap", 2*time.Second, "upper bound on honored Retry-After waits")
		minDone    = flag.Float64("min-complete", 0, "fail unless at least this fraction of sent requests completed")

		jobs       = flag.Int("jobs", 0, "run this many async jobs via /v1/jobs instead of the rate sweep")
		jobKernel  = flag.String("job-kernel", "gemm", "job kernel: gemm (sharded) or cg (long path with checkpoint streaming)")
		jobN       = flag.Int("job-n", 256, "job GEMM dimension")
		jobNX      = flag.Int("job-nx", 48, "job CG grid x (-job-kernel cg)")
		jobNY      = flag.Int("job-ny", 48, "job CG grid y (-job-kernel cg)")
		jobVerify  = flag.Bool("job-verify", false, "recompute the reference product locally and require a bit-digest match")
		jobTimeout = flag.Duration("job-timeout", 2*time.Minute, "per-job budget, submit through terminal state")
	)
	flag.Parse()

	cfg := loadgen.Config{
		Seed:          *seed,
		Duration:      *duration,
		Requests:      *requests,
		Timeout:       *timeout,
		N:             *n,
		NX:            *nx,
		NY:            *ny,
		FaultFraction: *fraction,
		Faults:        *faults,
	}
	var err error
	if cfg.Rates, err = parseList(*rates, parseRate); err != nil {
		return err
	}
	if len(cfg.Rates) == 0 {
		return fmt.Errorf("no rates given")
	}
	if cfg.Kernels, err = parseList(*kernels, serve.ParseKernel); err != nil {
		return err
	}
	if cfg.Strategies, err = parseList(*strategies, core.ParseStrategy); err != nil {
		return err
	}
	if cfg.Modes, err = parseList(*modes, abft.ParseVerifyMode); err != nil {
		return err
	}
	if cfg.Integrities, err = parseList(*integs, serve.ParseIntegrity); err != nil {
		return err
	}
	if cfg.Dtypes, err = parseList(*dtypes, serve.ParseDtype); err != nil {
		return err
	}
	cfg.Replicas = *replicas
	cfg.ForbidNodes = splitList(*forbidNode)
	if cfg.FaultKind, err = parseKind(*kindName); err != nil {
		return err
	}
	if cfg.Tenants, err = parseTenants(*tenants); err != nil {
		return err
	}
	minComplete, err := parseTenantGates(*tenantDone)
	if err != nil {
		return err
	}
	minShed, err := parseTenantGates(*tenantShed)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &loadgen.HTTPClient{
		Base:          strings.TrimRight(*addr, "/"),
		Retry429:      *retry429,
		RetryAfterCap: *retryCap,
	}
	if *wait > 0 {
		if err := client.WaitReady(ctx, *wait); err != nil {
			return err
		}
	}
	if *jobs > 0 {
		return runJobs(ctx, client, loadgen.JobsConfig{
			Jobs:    *jobs,
			Kernel:  strings.ToLower(*jobKernel),
			N:       *jobN,
			NX:      *jobNX,
			NY:      *jobNY,
			Seed:    *seed,
			Timeout: *jobTimeout,
			Verify:  *jobVerify,
		})
	}
	res, err := loadgen.Run(ctx, client, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Table())

	totals := res.Totals()
	if totals.Unclassified > 0 {
		return fmt.Errorf("%d wrong-answer outcomes (outside corrected/restarted/aborted)", totals.Unclassified)
	}
	if totals.ForbiddenNode > 0 {
		return fmt.Errorf("%d answers delivered by a forbidden node", totals.ForbiddenNode)
	}
	if totals.Errors > 0 {
		return fmt.Errorf("%d transport/internal errors", totals.Errors)
	}
	if totals.Corrected+totals.Restarted+totals.Aborted == 0 {
		return fmt.Errorf("no request completed — server unreachable or fully shedding")
	}
	if *minDone > 0 {
		frac := float64(res.Completed()) / float64(res.Sent())
		if frac < *minDone {
			return fmt.Errorf("only %.1f%% of %d requests completed (gate %.1f%%)",
				100*frac, res.Sent(), 100**minDone)
		}
	}
	return tenantGates(res, minComplete, minShed)
}

// tenantGates applies the per-tenant QoS gates: a protected tenant must
// keep completing its share, and a flooding tenant must actually have been
// throttled or shed — silence on either side fails the run.
func tenantGates(res *loadgen.Result, minComplete, minShed map[string]float64) error {
	totals := res.TenantTotals()
	for name, gate := range minComplete {
		ts, ok := totals[name]
		if !ok || ts.Sent == 0 {
			return fmt.Errorf("tenant %q gate: no requests recorded", name)
		}
		got := float64(ts.Completed) / float64(ts.Sent)
		if got < gate {
			return fmt.Errorf("tenant %q completed %.1f%% of %d requests (gate %.1f%%)",
				name, 100*got, ts.Sent, 100*gate)
		}
	}
	for name, gate := range minShed {
		ts, ok := totals[name]
		if !ok {
			return fmt.Errorf("tenant %q gate: no requests recorded", name)
		}
		if float64(ts.Throttled+ts.Shed) < gate {
			return fmt.Errorf("tenant %q throttled+shed %d (gate >= %.0f)",
				name, ts.Throttled+ts.Shed, gate)
		}
	}
	return nil
}

// parseTenants reads the -tenants spec: "name=priority@rate,...". The
// priority is mandatory; the rate is optional (0 inherits the cell rate).
func parseTenants(spec string) ([]loadgen.TenantSpec, error) {
	var out []loadgen.TenantSpec
	for _, part := range splitList(spec) {
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("bad -tenants entry %q (want name=priority@rate)", part)
		}
		prioName, rateStr, hasRate := strings.Cut(rest, "@")
		if prioName == "" {
			return nil, fmt.Errorf("no priority in -tenants entry %q (want name=priority@rate)", part)
		}
		prio, err := serve.ParsePriority(prioName, serve.DefaultStrategy)
		if err != nil {
			return nil, err
		}
		spec := loadgen.TenantSpec{Name: name, Priority: prio}
		if hasRate {
			r, err := strconv.ParseFloat(rateStr, 64)
			if err != nil || !(r > 0) { // also refuses NaN
				return nil, fmt.Errorf("bad rate in -tenants entry %q", part)
			}
			spec.Rate = r
		}
		out = append(out, spec)
	}
	return out, nil
}

// parseTenantGates reads a "name=value,..." gate spec.
func parseTenantGates(spec string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, part := range splitList(spec) {
		name, valStr, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad gate entry %q (want name=value)", part)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil || !(v >= 0) { // a NaN gate would pass every run
			return nil, fmt.Errorf("bad value in gate entry %q", part)
		}
		out[name] = v
	}
	return out, nil
}

// runJobs is the async-jobs mode: submit -jobs jobs, poll each to a
// terminal state, and apply the gates: every job done, digests matching,
// and no lost block re-executed (a gateway that lost a worker mid-job must
// have reconstructed from the checksum blocks).
func runJobs(ctx context.Context, client *loadgen.HTTPClient, cfg loadgen.JobsConfig) error {
	rep, err := loadgen.RunJobs(ctx, client, cfg)
	printJobs(rep)
	if err != nil {
		return err
	}
	if err := rep.Gate(); err != nil {
		return err
	}
	if rep.Recomputes > 0 {
		return fmt.Errorf("recomputes=%d, want 0 (lost blocks must be reconstructed, not re-executed)", rep.Recomputes)
	}
	fmt.Printf("jobs: %d done, %d sharded, %d long, %d reconstructions, %d migrations, 0 recomputes\n",
		rep.Done, rep.Sharded, rep.LongJobs, rep.Reconstructions, rep.Migrations)
	return nil
}

// printJobs renders one line per job, long jobs with their recovery story.
func printJobs(rep loadgen.JobsReport) {
	for _, j := range rep.Jobs {
		st := j.Status
		if st.Long {
			fmt.Printf("job %-8s %-9s n=%-5d node=%-4s step=%-5d checkpoints=%-3d migrations=%d resume_step=%d recovery=%.0fms wall=%.0fms\n",
				st.ID, st.State, st.N, st.Node, st.Step, st.Checkpoints,
				st.Migrations, st.ResumeStep, st.RecoveryMS, j.WallMS)
			continue
		}
		fmt.Printf("job %-8s %-9s n=%-5d sharded=%-5v blocks=%d/%d reconstructions=%d recomputes=%d digest=%s wall=%.0fms\n",
			st.ID, st.State, st.N, st.Sharded, st.BlocksDone, st.BlocksTotal,
			st.Reconstructions, st.Recomputes, st.Digest, j.WallMS)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseList parses every entry of a comma-separated flag value.
func parseList[T any](spec string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range splitList(spec) {
		v, err := parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil || !(r > 0) { // also refuses NaN
		return 0, fmt.Errorf("bad rate %q", s)
	}
	return r, nil
}

func parseKind(name string) (bifit.Kind, error) {
	for _, k := range []bifit.Kind{bifit.SingleBit, bifit.DoubleBitSameWord, bifit.ChipFailure, bifit.Scattered} {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown fault kind %q", name)
}
