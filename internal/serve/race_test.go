//go:build race

package serve

// raceEnabled gates the allocation-budget test: the race detector's shadow
// bookkeeping inflates allocation counts and sync.Pool drops items under it.
const raceEnabled = true
