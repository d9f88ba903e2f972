//go:build race

package cluster

// raceEnabled gates the allocation-budget test: the race detector's shadow
// bookkeeping inflates allocation counts and sync.Pool drops items under it.
const raceEnabled = true
