package core

// Tests for the batch layer (batch.go): parallel/sequential
// equivalence, batched stat-flush totals, and cache invalidation under
// parallel batches. The storm tests run 32 goroutines against one
// Estimator and are the -race proof obligations of DESIGN.md §12.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/usda"
)

// stormPhrases flattens a corpus and tiles it with repeats so the
// caches see both first-contact and repeat traffic.
func stormPhrases(t *testing.T) []string {
	t.Helper()
	corpus, _ := testCorpus(t, 40)
	flat := corpus.Phrases()
	out := make([]string, 0, len(flat)*3)
	for rep := 0; rep < 3; rep++ {
		out = append(out, flat...)
	}
	return out
}

// TestShardedBatchMatchesSequential: the parallel work-stealing pool,
// on a caching and on an uncached estimator, must produce output
// byte-identical to the sequential path on the same input.
func TestShardedBatchMatchesSequential(t *testing.T) {
	phrases := stormPhrases(t)

	ref := NewDefault()
	want := make([]string, len(phrases))
	for i, r := range estimateAll(t, ref, phrases, 1) {
		want[i] = fmt.Sprintf("%+v", r)
	}

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"cached", Options{CacheSize: 1 << 12}},
		{"uncached", Options{}},
	} {
		for _, workers := range []int{2, 4, 8, 32} {
			e, err := New(usda.Seed(), nil, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := estimateAll(t, e, phrases, workers)
			for i := range got {
				if s := fmt.Sprintf("%+v", got[i]); s != want[i] {
					t.Fatalf("%s workers=%d: phrase %q diverged:\n got: %s\nwant: %s",
						tc.name, workers, phrases[i], s, want[i])
				}
			}
		}
	}
}

// TestShardedBatchStorm32 hammers one cached estimator with 32
// concurrent parallel batches sharing the worker-environment free list
// and both caches; every batch must still return the sequential
// reference results. Run under -race this is the proof that the batch
// layer and the shared caches are data-race free.
func TestShardedBatchStorm32(t *testing.T) {
	phrases := stormPhrases(t)

	ref := NewDefault()
	want := make([]string, len(phrases))
	for i, r := range estimateAll(t, ref, phrases, 1) {
		want[i] = fmt.Sprintf("%+v", r)
	}

	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := estimateAll(t, e, phrases, 1+g%4)
			for i := range got {
				if s := fmt.Sprintf("%+v", got[i]); s != want[i] {
					t.Errorf("goroutine %d: phrase %q diverged:\n got: %s\nwant: %s", g, phrases[i], s, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardStatsFlushTotals: workers accumulate stats locally and flush
// once per batch; the atomic aggregates must still hold the exact
// true totals once all batches drain — 32 goroutines, no lost updates.
func TestShardStatsFlushTotals(t *testing.T) {
	phrases := stormPhrases(t)
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	workersPer := 4
	// A stats reader runs beside the storm: ShardStats must never race
	// with the batches' flushes.
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := e.ShardStats(); st.Phrases > goroutines*uint64(len(phrases)) {
				t.Errorf("Phrases = %d mid-storm, more than the storm sends", st.Phrases)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			estimateAll(t, e, phrases, workersPer)
		}()
	}
	wg.Wait()
	close(stop)
	<-read

	st := e.ShardStats()
	if want := uint64(goroutines * len(phrases)); st.Phrases != want {
		t.Errorf("Phrases = %d, want exactly %d", st.Phrases, want)
	}
	if want := uint64(goroutines * workersPer); st.WorkerFlushes != want {
		t.Errorf("WorkerFlushes = %d, want exactly %d (one per worker per batch)", st.WorkerFlushes, want)
	}
	if st.Envs == 0 || st.Envs > goroutines*uint64(workersPer) {
		t.Errorf("Envs = %d, want in [1, %d]", st.Envs, goroutines*workersPer)
	}
}

// TestObserveUnitsInvalidatesSlotL1 pins the invalidation contract on
// the parallel path: a parallel batch warms the phrase cache,
// ObserveUnits changes the unit statistics, and the next parallel batch
// must serve recomputed results — not the stale cached ones.
func TestObserveUnitsInvalidatesSlotL1(t *testing.T) {
	e, err := New(usda.Seed(), nil, Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewDefault()

	// Two copies so the parallel dispatcher has > 1 item per worker.
	probe := []string{"garlic , minced", "garlic , minced"}
	before := estimateAll(t, e, probe, 2)
	wantBefore := ref.EstimateIngredient(probe[0])
	if fmt.Sprintf("%+v", before[0]) != fmt.Sprintf("%+v", wantBefore) {
		t.Fatal("parallel batch diverged before observation")
	}

	teach := []string{"2 cloves garlic", "3 cloves garlic , crushed"}
	e.ObserveUnits(teach)
	ref.ObserveUnits(teach)

	after := estimateAll(t, e, probe, 2)
	want := ref.EstimateIngredient(probe[0])
	for i := range after {
		if fmt.Sprintf("%+v", after[i]) != fmt.Sprintf("%+v", want) {
			t.Fatalf("stale result after ObserveUnits:\n got: %+v\nwant: %+v", after[i], want)
		}
	}
	if want.UnitOrigin == UnitMostFrequent && after[0].UnitOrigin != UnitMostFrequent {
		t.Fatal("observation did not reach the parallel path")
	}
}

// TestEstimateRecipesSharedWorkers: the recipe-corpus path runs on the
// same worker environments; outcomes must match the sequential recipe
// API exactly.
func TestEstimateRecipesSharedWorkers(t *testing.T) {
	corpus, phrases := testCorpus(t, 30)
	inputs := make([]RecipeInput, len(phrases))
	for i := range phrases {
		inputs[i] = RecipeInput{Phrases: phrases[i], Servings: corpus.Recipes[i].Servings}
	}
	ref := NewDefault()
	want := make([]string, len(inputs))
	for i, in := range inputs {
		rr, err := ref.EstimateRecipe(context.Background(), in)
		want[i] = renderResult(rr, err)
	}
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for i, o := range e.EstimateRecipes(inputs, workers) {
			if got := renderResult(o.Result, o.Err); got != want[i] {
				t.Fatalf("workers=%d recipe %d diverged:\n got: %s\nwant: %s", workers, i, got, want[i])
			}
		}
	}
}

// TestLinesOnlySkipsTotals: a LinesOnly input yields the same per-line
// results as the full recipe, with the recipe totals left unsummed.
func TestLinesOnlySkipsTotals(t *testing.T) {
	_, phrases := testCorpus(t, 10)
	e := NewDefault()
	for i, lines := range phrases {
		full, err := e.EstimateRecipe(context.Background(), RecipeInput{Phrases: lines, Servings: 2})
		if err != nil {
			t.Fatal(err)
		}
		only, err := e.EstimateRecipe(context.Background(), RecipeInput{Phrases: lines, Servings: 2, LinesOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(only.Ingredients, full.Ingredients) {
			t.Fatalf("recipe %d: LinesOnly lines %+v, want %+v", i, only.Ingredients, full.Ingredients)
		}
		if only.Total != (nutrition.Profile{}) || only.Servings != 0 || only.MappedFraction != 0 {
			t.Fatalf("recipe %d: LinesOnly summed totals: %+v", i, only)
		}
	}
}
