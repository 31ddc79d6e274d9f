package core

// Concurrent batch estimation. A single Estimator is shared by a
// bounded worker pool; output is always input-ordered and byte-identical
// to the sequential path, so callers can parallelize corpus-scale runs
// without giving up determinism.
//
// Two dispatch strategies exist, each the only path for its job (see
// shard.go for the why):
//
//   - Sharded (parallel batches on a caching estimator): phrases are
//     hash-partitioned onto slots, workers own disjoint slot subsets,
//     and repeats are served from per-slot L1 caches with no shared
//     writes on the hot path.
//
//   - Work-stealing (sequential batches, uncached estimators, and the
//     recipe-corpus pool): indices are handed out by an atomic counter,
//     which balances skewed per-item costs but funnels every repeat
//     through the shared L2.
//
// Both strategies run on estimator-owned worker environments (scratch +
// pinned match session) rather than sync.Pool scratches: pool per-P
// caches drain under GC and goroutine migration, and every drained
// checkout re-warms a cold scratch — the measured allocs/op inflation
// of the oversubscribed parallel path.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/yield"
)

// normWorkers clamps a requested worker count: <= 0 selects
// GOMAXPROCS, and the pool never exceeds the number of work items.
func normWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// forEachIndexCtx runs fn(i, w) for i in [0, n) on a bounded worker
// pool. Indices are handed out by an atomic counter, so the pool stays
// busy even when per-item cost is skewed (cache hits vs full matches).
// Each worker checks one environment out of the estimator's free list —
// pinned to snap's matcher — and reuses it for every index it claims,
// flushing its stats once on exit. Once ctx is done, workers stop
// claiming new indices and the call returns ctx's error. Items already
// in flight run to completion (per-item work is microseconds; there is
// no partial-item state to unwind), so the cancellation latency is one
// item per worker.
func (e *Estimator) forEachIndexCtx(ctx context.Context, snap *Snapshot, n, workers int, fn func(int, *worker)) error {
	workers = normWorkers(workers, n)
	done := ctx.Done()
	if workers == 1 {
		w := worker{env: e.getEnv(snap)}
		defer e.flushWorker(&w, 0)
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(i, &w)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func(wk int) {
			defer wg.Done()
			w := worker{env: e.getEnv(snap)}
			defer e.flushWorker(&w, wk%statStripes)
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i, &w)
			}
		}(wk)
	}
	wg.Wait()
	return ctx.Err()
}

// batchInto estimates every phrase into out[i]. Parallel batches on a
// caching estimator take the sharded path (phrase-hash partition,
// per-slot L1s, zero shared writes on repeats); everything else runs on
// the work-stealing pool. Results are identical either way.
func (e *Estimator) batchInto(ctx context.Context, phrases []string, workers int, out []IngredientResult) error {
	// One pin per batch: every phrase in the batch — and every worker's
	// match session — resolves against the same snapshot, even if a
	// reload lands mid-batch.
	v := e.pin()
	workers = normWorkers(workers, len(phrases))
	if workers > 1 && e.phraseCache != nil {
		if workers > numSlots {
			workers = numSlots
		}
		return e.estimateShardedCtx(ctx, v, phrases, workers, out)
	}
	return e.forEachIndexCtx(ctx, v.snap, len(phrases), workers, func(i int, w *worker) {
		// nil slot: no L1 on the work-stealing path (indices are claimed
		// dynamically, so no worker owns a stable phrase subset), but the
		// per-worker phrase counting still applies.
		out[i] = e.estimateSlot(v, phrases[i], w, nil)
	})
}

// EstimateBatch estimates every phrase on a bounded worker pool sharing
// this Estimator and returns the results in input order, identical to
// calling EstimateIngredient in a loop. workers <= 0 selects
// GOMAXPROCS, workers == 1 runs sequentially on the calling goroutine,
// and at most `workers` goroutines exist at any time regardless of
// batch size. When ctx is cancelled (or its deadline passes) mid-batch,
// workers stop claiming new phrases and the call returns ctx's error
// with a nil slice: a cancelled batch has estimated an unpredictable
// prefix of the input. An empty batch returns nil, nil.
func (e *Estimator) EstimateBatch(ctx context.Context, phrases []string, workers int) ([]IngredientResult, error) {
	if len(phrases) == 0 {
		return nil, nil
	}
	out := make([]IngredientResult, len(phrases))
	if err := e.batchInto(ctx, phrases, workers, out); err != nil {
		return nil, err
	}
	return out, nil
}

// EstimateRecipe estimates one recipe, its ingredient lines on a worker
// pool as in EstimateBatch, and aggregates them into totals corrected
// for r.Method. The error is the recipe's validation error or, on
// cancellation, ctx.Err().
func (e *Estimator) EstimateRecipe(ctx context.Context, r RecipeInput, workers int) (RecipeResult, error) {
	if err := r.validate(); err != nil {
		return RecipeResult{}, err
	}
	ingredients, err := e.EstimateBatch(ctx, r.Phrases, workers)
	if err != nil {
		return RecipeResult{}, err
	}
	return r.aggregate(ingredients), nil
}

// RecipeInput is one recipe to estimate.
type RecipeInput struct {
	Phrases  []string
	Servings int
	// Method, when not yield.None, applies the cooking-yield correction
	// — the Bognár-style adjustment the paper cites as the accuracy gap
	// of the raw-ingredient-sum approximation — to the recipe's totals.
	Method yield.Method
}

// validate reports why r cannot be estimated, or nil.
func (r *RecipeInput) validate() error {
	if len(r.Phrases) == 0 {
		return errors.New("core: recipe has no ingredients")
	}
	if r.Servings <= 0 {
		return fmt.Errorf("core: invalid servings %d", r.Servings)
	}
	return nil
}

// aggregate sums r's per-ingredient results into a RecipeResult and
// applies r's cooking-yield correction to the totals.
func (r *RecipeInput) aggregate(ingredients []IngredientResult) RecipeResult {
	out := RecipeResult{Servings: r.Servings, Ingredients: ingredients}
	mapped := 0
	for i := range ingredients {
		out.Total = out.Total.Add(ingredients[i].Profile)
		if ingredients[i].Mapped {
			mapped++
		}
	}
	out.PerServing = out.Total.Scale(1 / float64(r.Servings))
	out.MappedFraction = float64(mapped) / float64(len(ingredients))
	out.Total = yield.Apply(out.Total, r.Method)
	out.PerServing = yield.Apply(out.PerServing, r.Method)
	return out
}

// RecipeOutcome pairs a recipe's result with its per-recipe validation
// error, so one malformed recipe (no ingredients, bad servings) does
// not abort a corpus-scale run.
type RecipeOutcome struct {
	Result RecipeResult
	Err    error
}

// estimateRecipeWorker runs one recipe sequentially on an already-held
// worker environment: EstimateRecipesInto parallelizes across recipes,
// so nesting another pool per recipe would only multiply goroutines.
// Slot L1s are skipped (nil slot) — recipe workers don't own slots;
// repeats still hit the shared L2. ingredients is the caller-provided
// result destination, len(r.Phrases) long.
func (e *Estimator) estimateRecipeWorker(v view, r *RecipeInput, w *worker, ingredients []IngredientResult) RecipeOutcome {
	if err := r.validate(); err != nil {
		return RecipeOutcome{Err: err}
	}
	for i, p := range r.Phrases {
		ingredients[i] = e.estimateSlot(v, p, w, nil)
	}
	return RecipeOutcome{Result: r.aggregate(ingredients)}
}

// EstimateRecipes estimates a corpus of recipes on a bounded worker
// pool sharing this Estimator: EstimateRecipesInto on freshly allocated
// memory. Outcomes are input-ordered and byte-identical to calling
// EstimateRecipe on each recipe in turn; workers <= 0 selects
// GOMAXPROCS.
func (e *Estimator) EstimateRecipes(recipes []RecipeInput, workers int) []RecipeOutcome {
	if len(recipes) == 0 {
		return nil
	}
	total := 0
	for i := range recipes {
		total += len(recipes[i].Phrases)
	}
	out := make([]RecipeOutcome, len(recipes))
	// Cannot fail: out and the arena are sized to the input, and the
	// background context is never cancelled.
	_ = e.EstimateRecipesInto(context.Background(), recipes, workers, out, make([]IngredientResult, total))
	return out
}

// EstimateRecipesInto is EstimateRecipes on caller-owned memory: the
// windowed feed behind the streaming /v1/batch endpoint, whose bulk
// streams reuse one result arena across every window instead of
// allocating per line. recipes[i] is estimated into out[i], and each
// recipe's per-ingredient results are carved out of arena — which must
// hold at least the window's total phrase count — so a warm window
// performs no heap allocation in this layer. Outcomes (including their
// Ingredients slices) alias arena and are valid until the caller reuses
// it. Cancellation follows EstimateBatch: on a done ctx workers stop
// claiming recipes, the error is ctx.Err(), and out holds an
// unpredictable prefix.
func (e *Estimator) EstimateRecipesInto(ctx context.Context, recipes []RecipeInput, workers int, out []RecipeOutcome, arena []IngredientResult) error {
	if len(recipes) == 0 {
		return nil
	}
	if len(out) < len(recipes) {
		return fmt.Errorf("core: out holds %d outcomes for %d recipes", len(out), len(recipes))
	}
	total := 0
	for i := range recipes {
		total += len(recipes[i].Phrases)
	}
	if total > len(arena) {
		return fmt.Errorf("core: arena holds %d results for %d ingredient lines", len(arena), total)
	}
	// Carve disjoint arena windows up front so workers write their
	// recipe's results without coordination. The empty destination is
	// parked in out[i] (workers overwrite out[i] wholesale, reclaiming
	// the capacity through the carve below).
	off := 0
	for i := range recipes {
		n := len(recipes[i].Phrases)
		out[i] = RecipeOutcome{}
		out[i].Result.Ingredients = arena[off : off : off+n]
		off += n
	}
	v := e.pin()
	if normWorkers(workers, len(recipes)) == 1 {
		// Inline sequential loop rather than forEachIndexCtx: the closure
		// handed to the pool escapes (the parallel branch ships it to
		// goroutines), which would cost one heap allocation per window —
		// the difference between the bulk hot path's zero-alloc pin and
		// almost-zero.
		w := worker{env: e.getEnv(v.snap)}
		defer e.flushWorker(&w, 0)
		done := ctx.Done()
		for i := range recipes {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			dst := out[i].Result.Ingredients
			out[i] = e.estimateRecipeWorker(v, &recipes[i], &w, dst[:len(recipes[i].Phrases)])
		}
		return nil
	}
	return e.forEachIndexCtx(ctx, v.snap, len(recipes), workers, func(i int, w *worker) {
		dst := out[i].Result.Ingredients
		out[i] = e.estimateRecipeWorker(v, &recipes[i], w, dst[:len(recipes[i].Phrases)])
	})
}

// CacheStats reports the phrase- and match-level memoization counters.
// Both are zero-valued when Options.CacheSize == 0.
func (e *Estimator) CacheStats() (phrase, match memo.Stats) {
	if e.phraseCache != nil {
		phrase = e.phraseCache.Stats()
	}
	if e.matchCache != nil {
		match = e.matchCache.Stats()
	}
	return phrase, match
}

// MatcherStats reports the description matcher's index shape (vocabulary
// size, posting lists) and arena-pool counters, alongside CacheStats the
// observability surface of the estimation hot path (cmd/nutriprofile
// -stats).
func (e *Estimator) MatcherStats() match.MatcherStats {
	return e.snap.Load().matcher.Stats()
}
