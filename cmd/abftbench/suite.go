package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"coopabft/internal/mat"
)

// plan is what a run was asked to measure; it is written into the result
// file beside the host fingerprint, and -compare refuses two files whose
// plans measured differently.
type plan struct {
	Seed         uint64   `json:"seed"`
	Workloads    []string `json:"workloads"`
	Rounds       int      `json:"rounds"`
	RoundSeconds float64  `json:"round_seconds"`
	Clients      int      `json:"clients"`
	// TraceSeconds is each workload's time budget for the traced pass; 0
	// skips the pass and the global probes, and with them every per-layer
	// metric.
	TraceSeconds float64 `json:"trace_seconds"`
	// Short is smoke-test sizing, for bench_test.go only: one set-up per
	// round, an eighth of the traced and a quarter of the verified requests,
	// small global probes.
	Short bool `json:"short"`
}

// suitePlan is the full suite: every workload, measured as long as a
// contract run measures one, then traced.
func suitePlan(seed uint64) plan {
	p := plan{Seed: seed, Rounds: rounds, RoundSeconds: float64(suiteSeconds) / rounds,
		Clients: clients, TraceSeconds: suiteSeconds / 2}
	for _, w := range workloads {
		p.Workloads = append(p.Workloads, w.name)
	}
	return p
}

// fingerprint identifies the host and build a result file came from.
type fingerprint struct {
	GoVersion      string `json:"go_version"`
	GOOS           string `json:"goos"`
	GOARCH         string `json:"goarch"`
	NumCPU         int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	CPUModel       string `json:"cpu_model"`
	MatParallelism int    `json:"mat_parallelism"`
	GitCommit      string `json:"git_commit"`
	Time           string `json:"time"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		CPUModel:       cpuModel(),
		MatParallelism: mat.Parallelism(),
		GitCommit:      gitCommit(),
		Time:           time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitCommit is the working directory's HEAD, or "unknown" in a source
// checkout that is not a repository.
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name     string           `json:"name"`
	Why      string           `json:"why"`
	EndToEnd map[string]stat  `json:"end_to_end"`
	PerLayer map[string]value `json:"per_layer"`
	Sent     int              `json:"sent"`
	Answered int              `json:"answered"`
	Failed   int              `json:"failed"`
	Wrong    int              `json:"wrong_answers"`
	Traced   int              `json:"traced_requests"`
}

// suiteResult is the result file.
type suiteResult struct {
	Fingerprint fingerprint      `json:"fingerprint"`
	Plan        plan             `json:"config"`
	Workloads   []workloadResult `json:"workloads"`
	Global      map[string]value `json:"global"`
}

// suiteRun is one workload's state while the measurement runs.
type suiteRun struct {
	w      *workload
	setups []float64
	rounds []round
	next   []int
	all    tally
	notes  []string
}

// suiteMain runs the full suite, prints every metric by name and writes the
// result and trace files. It fails if any answer was wrong.
func suiteMain(p plan, out, traceOut string) error {
	res, spans, err := measure(p)
	if err != nil {
		return err
	}
	printSuite(res)
	if err := writeJSON(out, res); err != nil {
		return err
	}
	if err := writeJSON(traceOut, spans); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and %s (%d spans)\n", out, traceOut, len(spans))
	wrong := 0
	for _, wr := range res.Workloads {
		wrong += wr.Wrong
	}
	if wrong > 0 {
		return fmt.Errorf("wrong_answers = %d", wrong)
	}
	return nil
}

// measure is the benchmark's one measurement routine; the suite and the
// contract command differ only in the plan they hand it. For every workload
// of the plan: timed untraced rounds with set-up samples between them, the
// traced pass (if the plan has one) and the verification phase; then the
// global probes.
func measure(p plan) (*suiteResult, []span, error) {
	if p.Rounds < 1 || p.RoundSeconds <= 0 {
		return nil, nil, fmt.Errorf("need at least one round of positive length, got %d × %g s", p.Rounds, p.RoundSeconds)
	}
	setupTime, verifyN, traceScale := setupBudget/time.Duration(p.Rounds), verifyRequests, 1
	if p.Short {
		setupTime, verifyN, traceScale = 0, 8, 8
	}
	runs := make([]*suiteRun, len(p.Workloads))
	for i, name := range p.Workloads {
		w, err := workloadByName(name)
		if err != nil {
			return nil, nil, err
		}
		runs[i] = &suiteRun{w: w, next: make([]int, clients)}
	}

	// The rounds share one stack, as one deployment serves every mix;
	// set-up is sampled on throwaway stacks beside it.
	st, err := newStack(p.Seed)
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	for _, r := range runs {
		r.all.add(warmUp(st, r.w, p.Seed, r.w.warmup))
	}

	// Rounds interleave across workloads (w1,w2,w3,w4,w1,…) so host drift
	// hits all four alike.
	each := time.Duration(p.RoundSeconds * float64(time.Second))
	for i := 0; i < p.Rounds; i++ {
		for _, r := range runs {
			times, err := sampleSetUp(r.w, p.Seed, setupTime, &r.all)
			if err != nil {
				return nil, nil, err
			}
			r.setups = append(r.setups, times...)
			rd := runRound(st, r.w, p.Seed, r.next, each)
			r.rounds = append(r.rounds, rd)
			r.all.add(rd.tally)
			e := rd.endToEnd()
			fmt.Fprintf(os.Stderr, "round %d/%d %-16s %7.1f req/s  p50 %8.3f ms\n", i+1, p.Rounds,
				r.w.name, e["throughput_rps"], e["latency_p50_ms"])
		}
	}

	traced := p.TraceSeconds > 0
	tr := newTracer()
	res := &suiteResult{Plan: p, Global: make(map[string]value)}
	for _, r := range runs {
		var ps *pass
		var overhead float64
		if traced {
			limit := max(len(r.w.cycle), r.w.traceLimit/traceScale)
			ps = tracedPass(st, tr, r.w, p.Seed, limit, time.Duration(p.TraceSeconds*float64(time.Second)))
			r.notes = ps.fold(&r.all)
			overhead = traceOverhead(st, tr, r.w, p.Seed, min(limit, 2*len(r.w.cycle)+8))
		}
		vt, mismatches := verifyPhase(st, r.w, p.Seed, verifyN)
		r.all.add(vt)
		r.notes = append(r.notes, mismatches...)

		wr := workloadResult{Name: r.w.name, Why: r.w.why,
			EndToEnd: endToEndStats(r.setups, r.rounds, r.all), PerLayer: make(map[string]value),
			Sent: r.all.sent, Answered: r.all.answered, Failed: r.all.failed, Wrong: r.all.wrong}
		if traced {
			wr.Traced = ps.replays
			layers := layerMetrics(ps, r.rounds, overhead)
			for _, def := range perLayerDefs {
				if v, ok := layers[def.name]; ok {
					wr.PerLayer[def.name] = value{v, def.unit}
				}
			}
		}
		res.Workloads = append(res.Workloads, wr)
		for _, n := range append(r.notes, r.all.problems...) {
			fmt.Fprintln(os.Stderr, "abftbench:", n)
		}
	}

	if traced {
		globals, err := globalProbes(st, p.Seed, p.Short)
		if err != nil {
			return nil, nil, err
		}
		for _, def := range perLayerDefs {
			if v, ok := globals[def.name]; ok {
				res.Global[def.name] = value{v, def.unit}
			}
		}
	}
	res.Fingerprint = hostFingerprint()
	return res, tr.spans, nil
}

// printSuite prints every metric by name with its unit.
func printSuite(res *suiteResult) {
	fp := res.Fingerprint
	fmt.Printf("abftbench seed=%d rounds=%d×%gs clients=%d  %s %s/%s nproc=%d gomaxprocs=%d mat_parallelism=%d\n  cpu: %s\n  commit: %s\n",
		res.Plan.Seed, res.Plan.Rounds, res.Plan.RoundSeconds, res.Plan.Clients,
		fp.GoVersion, fp.GOOS, fp.GOARCH, fp.NumCPU, fp.GOMAXPROCS, fp.MatParallelism, fp.CPUModel, fp.GitCommit)

	fmt.Printf("\nEND TO END (value: best of %d rounds, setup_s the median of its set-ups; then the rounds' median [min .. max] and the sample count)\n", res.Plan.Rounds)
	for _, wr := range res.Workloads {
		fmt.Printf("\n%s  (sent %d, answered %d, failed %d, wrong %d)\n", wr.Name, wr.Sent, wr.Answered, wr.Failed, wr.Wrong)
		for _, defs := range [][]metricDef{endToEndDefs, suiteOnlyDefs} {
			for _, d := range defs {
				s := wr.EndToEnd[d.name]
				fmt.Printf("  %-18s %12.4f %-6s median %.4f [%.4f .. %.4f]  n=%d\n", d.name, s.Value, s.Unit, s.Median, s.Min, s.Max, s.Samples)
			}
		}
	}

	fmt.Printf("\nPER LAYER (traced pass at concurrency 1; timed-run counters where marked in README)\n")
	fmt.Printf("%-36s %-8s", "metric", "unit")
	for _, wr := range res.Workloads {
		fmt.Printf(" %16s", wr.Name)
	}
	fmt.Println()
	for _, def := range perLayerDefs {
		if _, global := res.Global[def.name]; global {
			continue
		}
		fmt.Printf("%-36s %-8s", def.name, def.unit)
		for _, wr := range res.Workloads {
			fmt.Printf(" %16.4f", wr.PerLayer[def.name].Value)
		}
		fmt.Println()
	}

	fmt.Printf("\nGLOBAL (one fixed input each, no workload)\n")
	for _, def := range perLayerDefs {
		if v, ok := res.Global[def.name]; ok {
			fmt.Printf("%-36s %-8s %16.4f\n", def.name, v.Unit, v.Value)
		}
	}
}
