package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/yield"
)

// testCorpus generates a small deterministic corpus and flattens it to
// per-recipe phrase slices.
func testCorpus(t *testing.T, recipes int) (*recipedb.Corpus, [][]string) {
	t.Helper()
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: recipes, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	phrases := make([][]string, len(corpus.Recipes))
	for i := range corpus.Recipes {
		rec := &corpus.Recipes[i]
		phrases[i] = make([]string, len(rec.Ingredients))
		for j := range rec.Ingredients {
			phrases[i][j] = rec.Ingredients[j].Phrase
		}
	}
	return corpus, phrases
}

// estimateAll is EstimateBatch on a context that is never cancelled.
func estimateAll(t testing.TB, e *Estimator, phrases []string, workers int) []IngredientResult {
	t.Helper()
	out, err := e.EstimateBatch(context.Background(), phrases, workers)
	if err != nil {
		t.Errorf("EstimateBatch: %v", err)
	}
	return out
}

// renderResult serializes a RecipeResult completely, so "byte-identical"
// below means exactly that.
func renderResult(rr RecipeResult, err error) string {
	if err != nil {
		return "err: " + err.Error()
	}
	return fmt.Sprintf("%+v", rr)
}

// TestSharedEstimatorStress shares one cached Estimator across 8
// goroutines estimating overlapping recipes and asserts every result is
// byte-identical to the sequential, uncached path. Run under -race this
// is the concurrency-safety proof for the batch layer.
func TestSharedEstimatorStress(t *testing.T) {
	corpus, phrases := testCorpus(t, 60)

	// Sequential reference: fresh uncached estimator, one goroutine.
	ref := NewDefault()
	ref.ObserveUnits(corpus.Phrases())
	want := make([]string, len(phrases))
	for i := range phrases {
		rr, err := ref.EstimateRecipe(context.Background(), RecipeInput{Phrases: phrases[i], Servings: corpus.Recipes[i].Servings})
		want[i] = renderResult(rr, err)
	}

	// Shared estimator: cached, observed concurrently, hammered by 8
	// goroutines over overlapping recipe sets.
	shared, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	shared.ObserveUnits(corpus.Phrases())

	const goroutines = 8
	var wg sync.WaitGroup
	got := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		got[g] = make([]string, len(phrases))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine walks every recipe, offset so the cache is
			// hit from different positions simultaneously.
			for k := 0; k < len(phrases); k++ {
				i := (k + g*7) % len(phrases)
				rr, err := shared.EstimateRecipe(context.Background(), RecipeInput{Phrases: phrases[i], Servings: corpus.Recipes[i].Servings})
				got[g][i] = renderResult(rr, err)
			}
		}()
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		for i := range phrases {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d recipe %d diverged from sequential path:\n got: %s\nwant: %s",
					g, i, got[g][i], want[i])
			}
		}
	}

	ps, ms := shared.CacheStats()
	if ps.Hits == 0 || ms.Hits == 0 {
		t.Errorf("expected cache hits under overlapping load; phrase=%+v match=%+v", ps, ms)
	}
}

// TestEstimateBatchMatchesSequential checks order preservation and
// equivalence for every worker count, cached and uncached.
func TestEstimateBatchMatchesSequential(t *testing.T) {
	corpus, _ := testCorpus(t, 30)
	flat := corpus.Phrases()

	ref := NewDefault()
	want := make([]string, len(flat))
	for i, p := range flat {
		want[i] = fmt.Sprintf("%+v", ref.EstimateIngredient(p))
	}

	for _, cacheSize := range []int{0, 1 << 10} {
		for _, workers := range []int{0, 1, 3, 8} {
			e, err := New(usda.Seed(), nil, Options{CacheSize: cacheSize})
			if err != nil {
				t.Fatal(err)
			}
			got := estimateAll(t, e, flat, workers)
			if len(got) != len(flat) {
				t.Fatalf("cache=%d workers=%d: len=%d want %d", cacheSize, workers, len(got), len(flat))
			}
			for i := range got {
				if s := fmt.Sprintf("%+v", got[i]); s != want[i] {
					t.Fatalf("cache=%d workers=%d: result %d diverged:\n got: %s\nwant: %s",
						cacheSize, workers, i, s, want[i])
				}
			}
		}
	}

	if got := estimateAll(t, NewDefault(), nil, 0); got != nil {
		t.Fatalf("EstimateBatch(nil) = %v; want nil", got)
	}
}

// recipeOutcome is the reference every entry point is held to: the
// recipe's validation error, or its phrases estimated one at a time
// through estimate, summed, scaled per serving and yield-corrected.
func recipeOutcome(in RecipeInput, estimate func(string) IngredientResult) RecipeOutcome {
	if err := in.validate(); err != nil {
		return RecipeOutcome{Err: err}
	}
	res := RecipeResult{Servings: in.Servings, Ingredients: make([]IngredientResult, len(in.Phrases))}
	mapped := 0
	for i, p := range in.Phrases {
		r := estimate(p)
		res.Ingredients[i] = r
		res.Total = res.Total.Add(r.Profile)
		if r.Mapped {
			mapped++
		}
	}
	res.PerServing = res.Total.Scale(1 / float64(in.Servings))
	res.MappedFraction = float64(mapped) / float64(len(in.Phrases))
	res.Total = yield.Apply(res.Total, in.Method)
	res.PerServing = yield.Apply(res.PerServing, in.Method)
	return RecipeOutcome{Result: res}
}

// TestEntryPointsMatchSequential holds every Estimate* entry point, at
// every worker count, cached and uncached, to sequential
// EstimateIngredient on an uncached estimator plus aggregation —
// reflect.DeepEqual, including per-recipe error isolation for
// malformed recipes. The entries share one estimator per cell, so all
// but the first run on caches another entry left warm.
func TestEntryPointsMatchSequential(t *testing.T) { matchSequential(t) }

// The tests below run one entry point alone on a fresh estimator per
// cell, so its own miss path is held to the same reference.

func TestEstimateBatchContextMatchesSequential(t *testing.T) {
	matchSequential(t, "EstimateBatch")
}

func TestEstimateRecipeContextMatchesPlain(t *testing.T) {
	matchSequential(t, "EstimateRecipe")
}

func TestEstimateRecipesMatchesSequential(t *testing.T) {
	matchSequential(t, "EstimateRecipes")
	if NewDefault().EstimateRecipes(nil, 4) != nil {
		t.Fatal("EstimateRecipes(nil) should be nil")
	}
}

func TestEstimateRecipesIntoMatches(t *testing.T) {
	matchSequential(t, "EstimateRecipesInto")
}

// matchSequential runs the named entry points (all of them if none is
// named), in table order on one estimator per workers × CacheSize cell,
// and fails on the first recipe that differs from recipeOutcome over
// an uncached EstimateIngredient.
func matchSequential(t *testing.T, only ...string) {
	t.Helper()
	corpus, phrases := testCorpus(t, 25)
	inputs := make([]RecipeInput, len(phrases))
	for i := range phrases {
		rec := &corpus.Recipes[i]
		inputs[i] = RecipeInput{Phrases: phrases[i], Servings: rec.Servings, Method: rec.Method}
	}
	// Malformed recipes must yield Err without aborting the rest.
	inputs = append(inputs,
		RecipeInput{Phrases: nil, Servings: 2},
		RecipeInput{Phrases: []string{"1 cup milk"}, Servings: 0},
	)
	flat := corpus.Phrases()
	ctx := context.Background()

	ref := NewDefault()
	want := make([]RecipeOutcome, len(inputs))
	for i, in := range inputs {
		want[i] = recipeOutcome(in, ref.EstimateIngredient)
	}
	for i, w := range want {
		if malformed := i >= len(phrases); (w.Err != nil) != malformed {
			t.Fatalf("recipe %d (malformed %v): Err = %v", i, malformed, w.Err)
		}
	}

	entries := []struct {
		name string
		run  func(e *Estimator, workers int) []RecipeOutcome
	}{
		{"EstimateIngredient", func(e *Estimator, _ int) []RecipeOutcome {
			out := make([]RecipeOutcome, len(inputs))
			for i, in := range inputs {
				out[i] = recipeOutcome(in, e.EstimateIngredient)
			}
			return out
		}},
		{"EstimateIngredientScratch", func(e *Estimator, _ int) []RecipeOutcome {
			sc := new(pipeline.Scratch)
			out := make([]RecipeOutcome, len(inputs))
			for i, in := range inputs {
				out[i] = recipeOutcome(in, func(p string) IngredientResult { return e.EstimateIngredientScratch(p, sc) })
			}
			return out
		}},
		{"EstimateBatch", func(e *Estimator, workers int) []RecipeOutcome {
			results, err := e.EstimateBatch(ctx, flat, workers)
			if err != nil || len(results) != len(flat) {
				t.Fatalf("EstimateBatch: %d results for %d phrases, err %v", len(results), len(flat), err)
			}
			// flat is the valid recipes' phrases in order; the malformed
			// ones fail validation before estimating anything.
			next := 0
			out := make([]RecipeOutcome, len(inputs))
			for i, in := range inputs {
				out[i] = recipeOutcome(in, func(string) IngredientResult { next++; return results[next-1] })
			}
			return out
		}},
		{"EstimateRecipe", func(e *Estimator, _ int) []RecipeOutcome {
			out := make([]RecipeOutcome, len(inputs))
			for i, in := range inputs {
				out[i].Result, out[i].Err = e.EstimateRecipe(ctx, in)
			}
			return out
		}},
		{"EstimateRecipes", func(e *Estimator, workers int) []RecipeOutcome {
			return e.EstimateRecipes(inputs, workers)
		}},
		{"EstimateRecipesInto", func(e *Estimator, workers int) []RecipeOutcome {
			out := make([]RecipeOutcome, len(inputs))
			arena := make([]IngredientResult, len(flat)+1)
			if err := e.EstimateRecipesInto(ctx, inputs, workers, out, arena); err != nil {
				t.Fatal(err)
			}
			// Every Ingredients slice is carved out of the caller's arena.
			off := 0
			for i, in := range inputs {
				if out[i].Err == nil && &out[i].Result.Ingredients[0] != &arena[off] {
					t.Fatalf("workers=%d recipe %d: Ingredients not carved from the caller arena", workers, i)
				}
				off += len(in.Phrases)
			}
			return out
		}},
	}

	if len(only) > 0 {
		kept := entries[:0]
		for _, entry := range entries {
			if slices.Contains(only, entry.name) {
				kept = append(kept, entry)
			}
		}
		if len(kept) != len(only) {
			t.Fatalf("entry points %v: %d of them are in the table", only, len(kept))
		}
		entries = kept
	}

	for _, cacheSize := range []int{0, 8192} {
		for _, workers := range []int{1, 2, 4} {
			// One estimator per cell, shared by the entries in turn: the
			// first runs cold, the rest on whatever caches it left warm.
			e, err := New(usda.Seed(), nil, Options{CacheSize: cacheSize})
			if err != nil {
				t.Fatal(err)
			}
			for _, entry := range entries {
				got := entry.run(e, workers)
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s cache=%d workers=%d: recipe %d diverged:\n got: %s\nwant: %s",
							entry.name, cacheSize, workers, i,
							renderResult(got[i].Result, got[i].Err), renderResult(want[i].Result, want[i].Err))
					}
				}
			}
		}
	}
}

// TestObserveUnitsConcurrentWithEstimation calls ObserveUnits while 8
// workers are estimating through the same estimator — the exact pattern
// the old frequency map raced on. Under -race this must be clean, and
// afterwards the most-frequent-unit fallback must reflect the pass.
func TestObserveUnitsConcurrentWithEstimation(t *testing.T) {
	corpus, _ := testCorpus(t, 40)
	flat := corpus.Phrases()

	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			estimateAll(t, e, flat, 2)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.ObserveUnits(flat)
		e.ObserveUnits(flat)
	}()
	wg.Wait()

	// The observation pass must have produced the same frequency state
	// as a sequential estimator observing the corpus twice.
	ref := NewDefault()
	ref.ObserveUnits(flat)
	ref.ObserveUnits(flat)
	for _, p := range flat {
		got := fmt.Sprintf("%+v", e.EstimateIngredient(p))
		want := fmt.Sprintf("%+v", ref.EstimateIngredient(p))
		if got != want {
			t.Fatalf("post-observation estimate for %q diverged:\n got: %s\nwant: %s", p, got, want)
		}
	}
}

// TestObserveUnitsInvalidatesPhraseCache pins the staleness contract:
// a warm cached result that depended on the default-row fallback must
// be recomputed once ObserveUnits teaches the estimator a modal unit.
func TestObserveUnitsInvalidatesPhraseCache(t *testing.T) {
	e, err := New(usda.Seed(), nil, Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewDefault()

	const probe = "garlic , minced" // no unit in phrase → fallback chain
	before := e.EstimateIngredient(probe)
	if fmt.Sprintf("%+v", before) != fmt.Sprintf("%+v", ref.EstimateIngredient(probe)) {
		t.Fatal("cached estimator diverged before observation")
	}

	teach := []string{"2 cloves garlic", "3 cloves garlic , crushed"}
	e.ObserveUnits(teach)
	ref.ObserveUnits(teach)

	after := e.EstimateIngredient(probe)
	want := ref.EstimateIngredient(probe)
	if fmt.Sprintf("%+v", after) != fmt.Sprintf("%+v", want) {
		t.Fatalf("stale cache after ObserveUnits:\n got: %+v\nwant: %+v", after, want)
	}
	if want.UnitOrigin == UnitMostFrequent && after.UnitOrigin != UnitMostFrequent {
		t.Fatal("observation did not reach the cached path")
	}
}

// TestCachedEqualsUncached sweeps a corpus through a cached and an
// uncached estimator and requires byte-identical output — the purity
// guarantee DESIGN.md documents.
func TestCachedEqualsUncached(t *testing.T) {
	corpus, _ := testCorpus(t, 50)
	flat := corpus.Phrases()

	plain := NewDefault()
	cached, err := New(usda.Seed(), nil, Options{CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	plain.ObserveUnits(flat)
	cached.ObserveUnits(flat)

	// Two sweeps so the second one is answered almost entirely from
	// cache (including LRU churn at capacity 256).
	for sweep := 0; sweep < 2; sweep++ {
		for _, p := range flat {
			got := fmt.Sprintf("%+v", cached.EstimateIngredient(p))
			want := fmt.Sprintf("%+v", plain.EstimateIngredient(p))
			if got != want {
				t.Fatalf("sweep %d: cached result for %q diverged:\n got: %s\nwant: %s", sweep, p, got, want)
			}
		}
	}
	ps, _ := cached.CacheStats()
	if ps.Hits == 0 {
		t.Error("second sweep produced no phrase-cache hits")
	}
}
