// Command abftbench is the repository's benchmark: one command that drives
// the whole serving stack (client → gateway → worker → ladder → kernel →
// response) under four traffic mixes and reports end-to-end numbers and a
// per-layer breakdown. See README.md for the workloads, the metrics and how
// to read the output.
//
//	abftbench -seed 1 -out run.json             the full suite, all four workloads
//	abftbench -workload W -seed N -seconds S -trace 0|1
//	                                            one workload, one JSON line (BENCHMARK.json's contract)
//	abftbench -compare old.json new.json        noise-aware regression gate
//
// All three run or read the same measurement (measure, in suite.go): the
// contract line is one workload's part of a suite result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// Run length is fixed by the benchmark, so that any two result files
// describe the same amount of work: every workload is measured in rounds
// rounds, and the suite measures each for suiteSeconds (BENCHMARK.json's
// run_seconds, which the contract command receives as -seconds).
const (
	rounds       = 8
	suiteSeconds = 20
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print one JSON result line")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same request sequences")
		seconds      = flag.Int("seconds", suiteSeconds, "with -workload: seconds of measurement")
		traceMode    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 adds the traced pass and prints the per-layer metrics")
		traceOut     = flag.String("trace-out", "abftbench-trace.json", "where traced runs write their spans")
		out          = flag.String("out", "abftbench.json", "suite: where to write the results")
		compare      = flag.Bool("compare", false, "compare two suite result files: abftbench -compare old.json new.json")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareMain(os.Stdout, flag.Args())
	case *workloadName != "":
		err = contractMain(*workloadName, *seed, *seconds, *traceMode == 1, *traceOut)
	default:
		err = suiteMain(suitePlan(*seed), *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abftbench:", err)
		os.Exit(1)
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the one line the driver reads.
type contractResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// contractPlan is the measurement BENCHMARK.json's command line asks for:
// one workload, measured for seconds. Untraced, all of that time goes to the
// timed rounds. Traced, half of it goes to the traced pass and a quarter to
// rounds, for the per-layer metrics only a loaded system shows (queueing,
// ladder outcomes, vote agreement).
func contractPlan(name string, seed uint64, seconds int, traced bool) (plan, error) {
	if _, err := workloadByName(name); err != nil {
		return plan{}, err
	}
	if seconds < 1 {
		return plan{}, errors.New("-seconds must be at least 1")
	}
	p := plan{Seed: seed, Workloads: []string{name}, Rounds: rounds,
		RoundSeconds: float64(seconds) / rounds, Clients: clients}
	if traced {
		p.RoundSeconds /= 4
		p.TraceSeconds = float64(seconds) / 2
	}
	return p, nil
}

// contractLine projects a one-workload result onto the contract's line:
// the end-to-end metrics of an untraced run, the per-layer ones of a traced
// run.
func contractLine(res *suiteResult) contractResult {
	wr := res.Workloads[0]
	line := contractResult{Correct: wr.Wrong == 0, Attempted: wr.Sent, Failed: wr.Failed,
		Metrics: make(map[string]value)}
	if res.Plan.TraceSeconds == 0 {
		for _, def := range endToEndDefs {
			line.Metrics[def.name] = value{wr.EndToEnd[def.name].Value, def.unit}
		}
		return line
	}
	for _, def := range perLayerDefs {
		v, ok := wr.PerLayer[def.name]
		if !ok {
			v = res.Global[def.name]
		}
		line.Metrics[def.name] = v
	}
	return line
}

// contractMain runs one workload the way BENCHMARK.json's command line asks
// and prints the result object as the last line of standard output.
func contractMain(name string, seed uint64, seconds int, traced bool, traceOut string) error {
	p, err := contractPlan(name, seed, seconds, traced)
	if err != nil {
		return err
	}
	res, spans, err := measure(p)
	if err != nil {
		return err
	}
	if traced {
		if err := writeJSON(traceOut, spans); err != nil {
			return err
		}
	}
	line := contractLine(res)
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return fmt.Errorf("wrong answers on %s", name)
	}
	return nil
}

// A run sets the system up many times and reports the median, which a slow
// first set-up (cold code, cold page cache) cannot move. The samples are
// spread over the run, a few on throwaway stacks before every round: the
// host slows down for seconds at a time, and samples taken back to back at
// the start of the process would all sit inside one such stretch. Before
// each round a workload sets up once, and again until it has spent its share
// of setupBudget (setupsPerRound at most), so a workload whose set-up takes
// 50 ms, and jitters by as much, gets enough samples to settle.
const (
	setupsPerRound = 3
	setupBudget    = 1500 * time.Millisecond
)

// setUp builds the stack and runs w's warm-up; the time it takes is one
// setup_s sample.
func setUp(w *workload, seed uint64) (*stack, float64, tally, error) {
	start := time.Now()
	st, err := newStack(seed)
	if err != nil {
		return nil, 0, tally{}, err
	}
	t := warmUp(st, w, seed, w.warmup)
	return st, time.Since(start).Seconds(), t, nil
}

// sampleSetUp sets up once, and on until budget is spent, on throwaway
// stacks, and returns every set-up's time.
func sampleSetUp(w *workload, seed uint64, budget time.Duration, t *tally) ([]float64, error) {
	var times []float64
	spent := 0.0
	for len(times) == 0 || (spent < budget.Seconds() && len(times) < setupsPerRound) {
		st, s, wt, err := setUp(w, seed)
		if err != nil {
			return nil, err
		}
		st.close()
		times = append(times, s)
		spent += s
		t.add(wt)
	}
	return times, nil
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
