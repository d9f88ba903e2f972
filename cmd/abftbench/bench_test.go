package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"coopabft/internal/serve"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCode keeps the declaration and the program in
// step: every workload and metric BENCHMARK.json names is one the program
// emits under that name, unit, direction and bound, and the other way round.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}

	want := make([]struct{ Name, Why string }, len(workloads))
	var gotW []string
	for i, w := range workloads {
		want[i].Name, want[i].Why = w.name, w.why
		gotW = append(gotW, w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(bj.Workloads, want) {
		t.Errorf("workloads: BENCHMARK.json has\n%v\nthe program runs\n%v", bj.Workloads, want)
	}

	var gotE, gotL []metricDef
	for _, m := range bj.EndToEnd {
		gotE = append(gotE, metricDef{m.Name, m.Unit, m.Better, m.Bound})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		gotL = append(gotL, metricDef{name: m.Name, unit: m.Unit, better: m.Better})
	}
	if !reflect.DeepEqual(gotE, endToEndDefs) {
		t.Errorf("end_to_end: BENCHMARK.json has\n%v\nthe program emits\n%v", gotE, endToEndDefs)
	}
	if !reflect.DeepEqual(gotL, perLayerDefs) {
		t.Errorf("per_layer: BENCHMARK.json has\n%v\nthe program emits\n%v", gotL, perLayerDefs)
	}
	seen := make(map[string]bool)
	for _, n := range append(append(gotW, names(gotE)...), names(gotL)...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// TestSuiteShort runs the whole suite at smoke-test size and checks what it
// emits: every declared metric for every workload, self times that add up to
// the concurrency-1 latency, well-formed spans, no wrong answers, and a
// result file -compare accepts against itself and rejects once doctored.
func TestSuiteShort(t *testing.T) {
	p := suitePlan(1)
	p.Rounds, p.RoundSeconds, p.Short = 2, 0.25, true
	res, spans, err := measure(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("got %d workloads, want %d", len(res.Workloads), len(workloads))
	}
	for _, wr := range res.Workloads {
		if wr.Wrong != 0 || wr.Failed != 0 {
			t.Errorf("%s: %d wrong answers, %d failed of %d sent", wr.Name, wr.Wrong, wr.Failed, wr.Sent)
		}
		for _, def := range append(perRoundDefs, endToEndDefs[0]) {
			s, ok := wr.EndToEnd[def.name]
			if !ok || !(s.Value > 0) || math.IsInf(s.Value, 0) || s.Value < s.Min || s.Value > s.Max {
				t.Errorf("%s: end-to-end metric %s missing, not positive or outside its rounds' range: %+v", wr.Name, def.name, s)
			}
		}
		for _, def := range perLayerDefs {
			_, local := wr.PerLayer[def.name]
			_, global := res.Global[def.name]
			if local == global {
				t.Errorf("%s: per-layer metric %s emitted per workload: %v, globally: %v; want exactly one", wr.Name, def.name, local, global)
			}
			if v := wr.PerLayer[def.name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", wr.Name, def.name, v)
			}
		}
		for name := range wr.PerLayer {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: emitted name %q is malformed", wr.Name, name)
			}
		}
		// Self times are medians of per-request differences and c1 is the
		// median of the outermost level, so nothing makes them add up but
		// the levels really nesting. At this size (an eighth of the traced
		// requests, one or two per kind on the mixes) on a noisy host the
		// check is coarse: it catches a level that is lost or counted
		// twice, which is off by its whole share. TestLayerSelfTimes holds
		// the arithmetic exactly.
		sum, c1 := 0.0, wr.PerLayer["bench.c1_latency_ms"].Value
		for _, name := range selfTimes {
			sum += wr.PerLayer[name].Value
		}
		if math.Abs(sum-c1) > 0.35*c1 {
			t.Errorf("%s: layer self times sum to %.4f ms, concurrency-1 latency is %.4f ms", wr.Name, sum, c1)
		}
		if f32 := strings.Contains(wr.Name, "_f32_"); f32 && wr.PerLayer["recovery.self_ms"].Value != 0 {
			t.Errorf("%s: recovery.self_ms = %v on an f32-only workload, want exactly 0", wr.Name, wr.PerLayer["recovery.self_ms"].Value)
		}
	}

	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.ID == 0 || s.EndNS < s.StartNS {
			t.Fatalf("span %+v: unset or ends before it starts", s)
		}
		if _, ok := byID[s.Parent]; s.Parent != 0 && !ok {
			t.Fatalf("span %+v: parent does not exist", s)
		}
	}
	if len(spans) < numLevels*len(workloads) {
		t.Errorf("only %d spans recorded", len(spans))
	}

	dir := t.TempDir()
	base, doctored := filepath.Join(dir, "base.json"), filepath.Join(dir, "doctored.json")
	if err := writeJSON(base, res); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareMain(&out, []string{base, base}); err != nil {
		t.Errorf("a file compared with itself: %v\n%s", err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloads)*(len(endToEndDefs)+len(suiteOnlyDefs)) {
		t.Errorf("compare printed %d lines, want a header and one row per (workload, metric):\n%s", rows, out.String())
	}
	// Halve one workload's throughput in every round: a regression no noise
	// band can excuse.
	s := res.Workloads[0].EndToEnd["throughput_rps"]
	s.Value, s.Median, s.Min, s.Max = s.Value/2, s.Median/2, s.Min/2, s.Max/2
	res.Workloads[0].EndToEnd["throughput_rps"] = s
	if err := writeJSON(doctored, res); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := compareMain(&out, []string{base, doctored}); !errors.Is(err, errRegressed) {
		t.Errorf("halved throughput: compare returned %v, want errRegressed\n%s", err, out.String())
	}
	// A file of another run length is refused, not judged; another seed is
	// the third baseline set's case and compares.
	res.Plan.Seed++
	if err := writeJSON(doctored, res); err != nil {
		t.Fatal(err)
	}
	if err := compareMain(&out, []string{base, doctored}); !errors.Is(err, errRegressed) {
		t.Errorf("another seed: compare returned %v, want the comparison (errRegressed)", err)
	}
	res.Plan.RoundSeconds *= 2
	if err := writeJSON(doctored, res); err != nil {
		t.Fatal(err)
	}
	if err := compareMain(&out, []string{base, doctored}); err == nil || errors.Is(err, errRegressed) {
		t.Errorf("rounds twice as long: compare returned %v, want a refusal", err)
	}
}

// TestLayerSelfTimes holds layerMetrics' arithmetic on a made-up traced pass:
// each self time is the kind-weighted median of per-request level
// differences, so noise that hits a whole request (every level of it alike)
// cancels, and where each layer's cost is steady the seven add up to the
// concurrency-1 latency.
func TestLayerSelfTimes(t *testing.T) {
	w, _ := workloadByName("ladder_f64_mix") // four kinds, weights 2:1:2:1
	ps := &pass{w: w, byKind: make(map[int][]sample)}
	want := make(map[string]float64)
	c1 := 0.0
	for k := range w.kinds {
		// Kind k's layer at level lv costs (k+1)·(lv+1) ms; request i of
		// the kind starts i ms late at every level.
		for i := 0; i < 5; i++ {
			var s sample
			total := time.Duration(i) * time.Millisecond
			for lv := 0; lv < numLevels; lv++ {
				total += time.Duration((k+1)*(lv+1)) * time.Millisecond
				s.lv[lv] = total
			}
			ps.byKind[k] = append(ps.byKind[k], s)
		}
		for lv, name := range selfTimes {
			self := float64((k + 1) * (lv + 1))
			if lv == 0 {
				self += 2 // the innermost level keeps its own median lateness
			}
			want[name] += w.weight(k) * self
			c1 += w.weight(k) * self
		}
	}
	m := layerMetrics(ps, []round{{bare: []float64{1}}}, 0)
	sum := 0.0
	for _, name := range selfTimes {
		sum += m[name]
		if math.Abs(m[name]-want[name]) > 1e-9 {
			t.Errorf("%s = %v ms, want %v", name, m[name], want[name])
		}
	}
	if got := m["bench.c1_latency_ms"]; math.Abs(got-c1) > 1e-9 || math.Abs(sum-c1) > 1e-9 {
		t.Errorf("self times sum to %v ms, bench.c1_latency_ms = %v, want both %v", sum, got, c1)
	}
}

// TestContractOutput checks the one-line result BENCHMARK.json's command
// prints: exactly the end-to-end metrics untraced, exactly the per-layer
// metrics traced, none of them zero where the contract forbids it.
func TestContractOutput(t *testing.T) {
	run := func(name string, traced bool) contractResult {
		t.Helper()
		p, err := contractPlan(name, 3, 1, traced)
		if err != nil {
			t.Fatal(err)
		}
		p.Short = true
		res, _, err := measure(p)
		if err != nil {
			t.Fatal(err)
		}
		return contractLine(res)
	}
	check := func(res contractResult, defs []metricDef, nonZero bool) {
		t.Helper()
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
		}
		for _, def := range defs {
			v, ok := res.Metrics[def.name]
			if !ok || v.Unit != def.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (nonZero && v.Value == 0) {
				t.Errorf("metric %s: %+v (present %v)", def.name, v, ok)
			}
		}
	}
	check(run("wire_f32_n16", false), endToEndDefs, true)
	check(run("chaos_vote_mix", true), perLayerDefs, false)
	if _, err := contractPlan("no_such_workload", 1, 1, false); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestSameSeedSameWork pins reproducibility: one seed gives one request
// sequence, and the counts the traced pass derives from it repeat exactly.
func TestSameSeedSameWork(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < clients; c++ {
			for i := 0; i < 3*len(w.cycle); i++ {
				k1, a := w.request(7, c, i, clients)
				k2, b := w.request(7, c, i, clients)
				if k1 != k2 || a != b {
					t.Fatalf("%s: request (%d,%d) differs between calls", w.name, c, i)
				}
				if _, other := w.request(8, c, i, clients); other.Seed == a.Seed {
					t.Fatalf("%s: request (%d,%d) has the same seed under workload seeds 7 and 8", w.name, c, i)
				}
			}
		}
		counts := make([]int, len(w.kinds))
		for i := range w.cycle {
			k, _ := w.request(7, 0, i, clients)
			counts[k]++
		}
		for k, kd := range w.kinds {
			if counts[k] != kd.weight {
				t.Errorf("%s: one cycle holds %d × %s, want its weight %d", w.name, counts[k], kd.name, kd.weight)
			}
		}
	}

	st, err := newStack(7)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	w, _ := workloadByName("ladder_f64_mix")
	exact := []string{"mat.flops_per_req", "mat.bytes_per_req_computed", "recovery.checkpoints_per_req",
		"recovery.sim_instructions_per_req", "recovery.sim_llc_misses_per_req"}
	var first map[string]float64
	for run := 0; run < 2; run++ {
		ps := tracedPass(st, nil, w, 7, len(w.cycle), 0)
		if len(ps.errs) > 0 || ps.replays != len(w.cycle) {
			t.Fatalf("traced pass replayed %d of %d requests: %v", ps.replays, len(w.cycle), ps.errs)
		}
		m := layerMetrics(ps, []round{{bare: []float64{1}}}, 0)
		if first == nil {
			first = m
			continue
		}
		for _, name := range exact {
			if m[name] != first[name] || m[name] == 0 {
				t.Errorf("%s: %v then %v for the same seed", name, first[name], m[name])
			}
		}
	}
}

// TestLadderLevelMatchesServe pins the recovery level's restatement of
// serve's private configuration (fault plan, simulated machine, kernel
// block and tolerance settings, admission limits) to serve itself: for
// every f64 request kind, faulted ones included, a run through runLadder
// must end as the same request through serve.Service.Do ends. If serve
// changes what it executes and layers.go does not follow, recovery.self_ms
// and the recovery.* counts stop describing the timed rounds, and this
// fails.
func TestLadderLevelMatchesServe(t *testing.T) {
	svc := serve.New(serve.Config{Parallelism: 1})
	defer svc.Close()
	ctx := context.Background()
	for _, w := range workloads {
		for i := 0; i < 2*len(w.cycle); i++ {
			k, req := w.request(11, 0, i, clients)
			if w.kinds[k].f32() {
				continue // no ladder level: f32 runs outside the coordinator
			}
			req.Integrity = "" // the gateway's business, not the ladder's
			p, err := serve.ParseRequest(workerLimits, req)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, w.kinds[k].name, err)
			}
			lr, err := runLadder(p)
			if err != nil {
				t.Fatalf("%s %s: ladder level: %v", w.name, w.kinds[k].name, err)
			}
			resp, err := svc.Do(ctx, req)
			if err != nil {
				t.Fatalf("%s %s: serve: %v", w.name, w.kinds[k].name, err)
			}
			got := [...]any{lr.rep.Outcome.String(), lr.rep.Injected, lr.rep.Restarts, lr.rep.Corrections,
				int(lr.rep.HWCorrected), lr.rep.Degradations}
			want := [...]any{resp.Outcome, resp.Injected, resp.Restarts, resp.Corrections,
				resp.HWCorrected, resp.Degradations}
			if got != want {
				t.Errorf("%s %s seed %d: ladder level ended (outcome, injected, restarts, corrections, hw corrected, degradations) = %v, serve %v",
					w.name, w.kinds[k].name, req.Seed, got, want)
			}
		}
	}

	// workerLimits restates serve.Config's defaults, which serve does not
	// export: one past either limit must be refused by a default worker.
	for _, req := range []serve.Request{
		{Kernel: "gemm", N: workerLimits.MaxN + 1},
		{Kernel: "gemm", N: 16, Faults: workerLimits.MaxFaults + 1},
	} {
		if _, err := serve.ParseRequest(workerLimits, req); err == nil {
			t.Errorf("workerLimits admits %+v", req)
		}
		if _, err := svc.Do(ctx, req); !errors.Is(err, serve.ErrBadRequest) {
			t.Errorf("a default worker answered %+v with %v, want ErrBadRequest", req, err)
		}
	}
	for _, req := range []serve.Request{
		{Kernel: "gemm", N: workerLimits.MaxN, Dtype: "f32"},
		{Kernel: "gemm", N: 16, Faults: workerLimits.MaxFaults},
	} {
		if _, err := svc.Do(ctx, req); err != nil {
			t.Errorf("a default worker refused %+v at the limit: %v", req, err)
		}
	}
}
