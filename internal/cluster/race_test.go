//go:build race

package cluster

// raceEnabled gates the allocation-budget test: the race detector's shadow
// bookkeeping inflates the allocation counts of its HTTP exchanges.
const raceEnabled = true
