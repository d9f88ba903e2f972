package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	verdictOK         = "ok"         // the new value is within the bound of the old one
	verdictRegressed  = "regressed"  // worse by more than the bound, and the runs resolve it
	verdictUnresolved = "unresolved" // the host was too noisy to say either way
)

// worsening returns how much worse new's reported value is than old's, as a
// share of old's (negative when new is better). Shares and counts
// (failed_frac, wrong_answers) are compared as absolute differences: they
// read zero when all is well.
func worsening(old, new stat) float64 {
	d := new.Value - old.Value
	if old.Better == "higher" {
		d = -d
	}
	if old.Unit == "share" || old.Unit == "count" || old.Value == 0 {
		return d
	}
	return d / old.Value
}

// spread is the rounds' range as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return s.Max - s.Min
	}
	return (s.Max - s.Min) / s.Median
}

// timeUnits are the units of metrics derived from a clock, which host drift
// moves; counts, shares and bytes it does not.
var timeUnits = map[string]bool{"s": true, "ms": true, "req/s": true, "x": true}

// judge decides one comparison. A difference beyond the bound counts as a
// regression only when the runs resolve it: if the two runs' round ranges
// overlap and either run's own rounds spread wider than the bound, the
// difference is within what this host produces unprompted. A timing within
// the bound counts as ok only if the host's kernel-speed drift during both
// runs stayed inside the bound too; otherwise nothing was shown.
func judge(old, new stat, driftPct float64) string {
	bound := old.Bound
	if w := worsening(old, new); w > bound {
		overlap := old.Min <= new.Max && new.Min <= old.Max
		if overlap && (old.spread() > bound || new.spread() > bound) {
			return verdictUnresolved
		}
		return verdictRegressed
	}
	if timeUnits[old.Unit] && driftPct/100 > bound {
		return verdictUnresolved
	}
	return verdictOK
}

func readSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res suiteResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(res.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (not an abftbench result file?)", path)
	}
	return &res, nil
}

// errRegressed is compareMain's failure when any row regressed.
var errRegressed = errors.New("at least one metric regressed")

// compareMain prints one row per (workload, end-to-end metric) of two suite
// result files and fails if any row regressed.
func compareMain(out io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: abftbench -compare old.json new.json")
	}
	old, err := readSuite(args[0])
	if err != nil {
		return err
	}
	new, err := readSuite(args[1])
	if err != nil {
		return err
	}
	// Run length is the benchmark's, not the caller's: two files that
	// measured differently are not comparable. Only the seed may differ.
	op, np := old.Plan, new.Plan
	np.Seed = op.Seed
	if !reflect.DeepEqual(op, np) {
		return fmt.Errorf("the files measured differently and cannot be compared: old %+v, new %+v", old.Plan, new.Plan)
	}
	newByName := make(map[string]workloadResult)
	for _, wr := range new.Workloads {
		newByName[wr.Name] = wr
	}
	fmt.Fprintf(out, "%-16s %-18s %12s %12s %8s %7s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "verdict")
	regressed := false
	for _, ow := range old.Workloads {
		nw, ok := newByName[ow.Name]
		if !ok {
			fmt.Fprintf(out, "%-16s missing from %s\n", ow.Name, args[1])
			regressed = true
			continue
		}
		drift := max(ow.PerLayer["bench.host_drift_pct"].Value, nw.PerLayer["bench.host_drift_pct"].Value)
		names := make([]string, 0, len(ow.EndToEnd))
		for name := range ow.EndToEnd {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			o, n := ow.EndToEnd[name], nw.EndToEnd[name]
			v := judge(o, n, drift)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(out, "%-16s %-18s %12.4f %12.4f %+7.1f%% %6.1f%%  %s\n",
				ow.Name, name, o.Value, n.Value, 100*worsening(o, n), 100*o.Bound, v)
		}
	}
	if regressed {
		return errRegressed
	}
	return nil
}
