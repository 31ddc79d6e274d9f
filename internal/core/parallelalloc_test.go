package core

// Pins the fix for the parallel allocation leak: at -cpu 4 the old
// sync.Pool-backed batch path inflated from ~670 to ~1374 allocs/op
// because oversubscription drained the pool's per-P caches and every
// checkout re-warmed a cold scratch (re-interning, memo rebuilds, arena
// regrowth). Worker environments are estimator-owned now, so a warm
// parallel batch allocates only fixed per-batch machinery (result
// slice, goroutines, WaitGroup) — nothing per phrase.

import (
	"testing"

	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/usda"
)

// TestParallelBatchZeroAllocPerPhrase: after one warming sweep, a
// 4-worker sharded batch must stay under a small fixed allocation
// budget regardless of batch size — i.e. zero allocations per phrase.
// A re-warming regression costs multiple allocations per phrase and
// blows the budget by orders of magnitude.
func TestParallelBatchZeroAllocPerPhrase(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	corpus, _ := testCorpus(t, 40)
	flat := corpus.Phrases()
	phrases := make([]string, 0, len(flat)*3)
	for rep := 0; rep < 3; rep++ {
		phrases = append(phrases, flat...)
	}

	const workers = 4
	e.EstimateBatchWorkers(phrases, workers) // warm caches, L1s, environments

	allocs := testing.AllocsPerRun(20, func() {
		if got := e.EstimateBatchWorkers(phrases, workers); len(got) != len(phrases) {
			t.Fatal("short batch result")
		}
	})
	// Fixed per-batch overhead: one result slice, `workers` goroutine
	// closures, and the WaitGroup. 24 is several times that machinery
	// and still ~0.04 allocs per phrase for this input; the pre-fix
	// behavior (scratch re-warming) costs multiple allocs per *phrase*
	// and lands thousands over budget.
	if maxAllocs := 24.0; allocs > maxAllocs {
		t.Fatalf("warm %d-worker batch of %d phrases allocates %v per run, want <= %v",
			workers, len(phrases), allocs, maxAllocs)
	}
}

// TestWarmFractionPhraseZeroAllocs: a warm phrase with a vulgar-fraction
// glyph is served from the phrase cache without allocating. The glyph
// expansion renders into the scratch instead of a new string per call.
func TestWarmFractionPhraseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const phrase = "1½ cups flour"
	sc := new(pipeline.Scratch)
	want := e.EstimateIngredientScratch(phrase, sc) // warm the cache and scratch
	if !want.Mapped || want.Quantity != 1.5 {
		t.Fatalf("%q: Mapped=%v Quantity=%v, want a mapped 1.5", phrase, want.Mapped, want.Quantity)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.EstimateIngredientScratch(phrase, sc)
	}); allocs != 0 {
		t.Fatalf("warm %q allocates %v times per call, want 0", phrase, allocs)
	}
}
