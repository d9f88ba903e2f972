package experiments

import (
	"context"
	"testing"
)

// run runs the experiment registered as name through the registry, the
// package's one entry point, and returns its typed rows; it fails the test
// on error, keeping table-driven assertions free of error plumbing.
func run[T any](t testing.TB, name string, opts ...Option) T {
	t.Helper()
	e, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := res.Data.(T)
	if !ok {
		t.Fatalf("%s: data is %T", name, res.Data)
	}
	return rows
}

// mustBasic returns the cached §5.1 sweep that fig5, fig6 and fig7 read;
// no experiment returns it whole.
func mustBasic(t testing.TB, o Options) BasicResults {
	t.Helper()
	r, err := basicCached(context.Background(), runConfig{o: o})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustThreshold runs the ARE-vs-ASE sweep over errorCounts rather than the
// registered experiment's DefaultThresholdErrors.
func mustThreshold(t testing.TB, o Options, errorCounts []int) []ThresholdPoint {
	t.Helper()
	pts, err := thresholdStudyRun(context.Background(), runConfig{o: o}, errorCounts)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}
