//go:build race

package bake

// The race detector allocates for its own bookkeeping, so
// testing.AllocsPerRun over-counts under -race; allocation pins skip
// themselves when this flag is set.
const raceEnabled = true
