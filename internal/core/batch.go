package core

// Batch estimation (DESIGN.md §12). A single Estimator is shared by
// every caller; output is always input-ordered and byte-identical to
// the sequential path, so callers can parallelize corpus-scale runs
// without giving up determinism.
//
// There is one dispatcher. Parallel work runs on a work-stealing pool
// (forEachIndexCtx): workers claim indices from an atomic counter, which
// balances skewed per-item costs (cache hits against full matches). An
// interactive recipe is not fanned out at all: its handful of lines run
// in order on the caller's goroutine (EstimateRecipe), which finishes
// no later than a fan-out and spends no goroutines on it.
//
// Every phrase, whichever entry point it came through, runs on an
// estimator-owned environment (NLP scratch + pinned match session) held
// in a bounded LIFO free list rather than a sync.Pool: pool per-P caches
// drain under GC and goroutine migration, and every drained checkout
// re-warms a cold scratch — the measured allocs/op inflation of the
// oversubscribed parallel path. Per-environment stats accumulate in
// plain fields and flush to one atomic per counter once per checkout,
// instead of per-phrase atomics on shared counters.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/yield"
)

// maxFreeEnvs bounds the worker-environment free list: more
// environments than this can exist transiently (concurrent batches each
// holding several), but only this many are retained.
const maxFreeEnvs = 64

// env is one worker environment, the estimator's only per-goroutine
// estimation context: the NLP scratch arena plus a match session pinned
// to one matcher (its own scoring arena). Environments are checked out
// once per call (per worker for a parallel batch) and returned warm; m
// records which matcher the session belongs to so a checkout after a
// snapshot swap re-pins instead of scoring against the retired index.
type env struct {
	sc      *pipeline.Scratch
	sess    *match.Session
	m       *match.Matcher
	phrases uint64 // phrases estimated since checkout, flushed by putEnv
}

// batchState is the Estimator's batch machinery: the worker-environment
// free list and the batched-flush stat aggregates.
type batchState struct {
	envMu    sync.Mutex
	freeEnvs []*env
	envsMade uint64 // lifetime environments created, under envMu

	// Batched-flush aggregates: workers accumulate locally and Add once
	// per checkout, so a parallel batch adds once per worker per call.
	phrasesDone atomic.Uint64
	flushes     atomic.Uint64
}

// ShardStats is the observability snapshot of the batch layer's
// workers. nutriserve's GET /v1/stats exposes it as its "shard" block,
// the name its readers parse.
type ShardStats struct {
	Phrases       uint64 `json:"phrases"`        // phrases estimated, through every entry point but ObserveUnits
	WorkerFlushes uint64 `json:"worker_flushes"` // environment releases, one batched stat flush each
	Envs          uint64 `json:"envs"`           // worker environments ever created
}

// ShardStats reports the batch layer's counters. Totals are exact once
// in-flight calls drain (each checkout flushes exactly once).
func (e *Estimator) ShardStats() ShardStats {
	e.envMu.Lock()
	envs := e.envsMade
	e.envMu.Unlock()
	return ShardStats{
		Phrases:       e.phrasesDone.Load(),
		WorkerFlushes: e.flushes.Load(),
		Envs:          envs,
	}
}

// getEnv checks a worker environment out of the estimator-owned free
// list, creating one when the list is empty. LIFO: the most recently
// returned (warmest) environment is reused first. snap is the batch's
// pinned snapshot; an environment whose session was pinned to a
// now-retired matcher is re-pinned before reuse, so a worker never
// scores against a different index than the snapshot it estimates with.
func (e *Estimator) getEnv(snap *Snapshot) *env {
	e.envMu.Lock()
	if n := len(e.freeEnvs); n > 0 {
		v := e.freeEnvs[n-1]
		e.freeEnvs[n-1] = nil
		e.freeEnvs = e.freeEnvs[:n-1]
		e.envMu.Unlock()
		if v.m != snap.matcher {
			v.sess.Close()
			v.sess = snap.matcher.NewSession()
			v.m = snap.matcher
		}
		return v
	}
	e.envsMade++
	e.envMu.Unlock()
	return &env{sc: new(pipeline.Scratch), sess: snap.matcher.NewSession(), m: snap.matcher}
}

// putEnv releases an environment: it flushes the checkout's stats (one
// Add per counter) and returns the environment to the free list; beyond
// maxFreeEnvs it is dismantled (the session's arena goes back to the
// matcher pool) and dropped. A kept environment first drops what an
// oversized phrase grew.
func (e *Estimator) putEnv(v *env) {
	if v.phrases != 0 {
		e.phrasesDone.Add(v.phrases)
		v.phrases = 0
	}
	e.flushes.Add(1)
	v.sc.Trim()
	v.sess.Trim()
	e.envMu.Lock()
	if len(e.freeEnvs) < maxFreeEnvs {
		e.freeEnvs = append(e.freeEnvs, v)
		e.envMu.Unlock()
		return
	}
	e.envMu.Unlock()
	v.sess.Close()
}

// estimateEnv estimates one phrase on w.
func (e *Estimator) estimateEnv(v view, phrase string, w *env) IngredientResult {
	w.phrases++
	return e.estimateCached(v, phrase, w.sc, w.sess)
}

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
// pinned to snap's matcher — reuses it for every index it claims, and
// releases it once on exit. Once ctx is done, workers stop claiming new
// indices and the call returns ctx's error. Items already in flight run
// to completion (per-item work is microseconds; there is no
// partial-item state to unwind), so the cancellation latency is one
// item per worker.
func (e *Estimator) forEachIndexCtx(ctx context.Context, snap *Snapshot, n, workers int, fn func(int, *env)) error {
	workers = normWorkers(workers, n)
	done := ctx.Done()
	if workers == 1 {
		w := e.getEnv(snap)
		defer e.putEnv(w)
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(i, w)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			w := e.getEnv(snap)
			defer e.putEnv(w)
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
				fn(i, w)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
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
	// One pin per batch: every phrase in the batch — and every worker's
	// match session — resolves against the same snapshot, even if a
	// reload lands mid-batch.
	v := e.pin()
	err := e.forEachIndexCtx(ctx, v.snap, len(phrases), workers, func(i int, w *env) {
		out[i] = e.estimateEnv(v, phrases[i], w)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EstimateRecipe estimates one recipe and aggregates its lines into
// totals corrected for r.Method. The lines run in order on the calling
// goroutine, on one worker environment. The error is the recipe's
// validation error or, when ctx is done before the last line,
// ctx.Err().
func (e *Estimator) EstimateRecipe(ctx context.Context, r RecipeInput) (RecipeResult, error) {
	v := e.pin()
	w := e.getEnv(v.snap)
	defer e.putEnv(w)
	var o RecipeOutcome
	o.Result.Ingredients = make([]IngredientResult, len(r.Phrases))
	e.estimateRecipeEnv(ctx, v, &r, w, &o)
	return o.Result, o.Err
}

// RecipeInput is one recipe to estimate.
type RecipeInput struct {
	Phrases  []string
	Servings int
	// Method, when not yield.None, applies the cooking-yield correction
	// — the Bognár-style adjustment the paper cites as the accuracy gap
	// of the raw-ingredient-sum approximation — to the recipe's totals.
	Method yield.Method
	// LinesOnly marks an input whose caller reads only the per-line
	// results, as the serving codec's estimate items do: the recipe
	// totals are not summed, and the outcome's Result holds only
	// Ingredients.
	LinesOnly bool
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

// aggregate sums r's per-ingredient results into out and applies r's
// cooking-yield correction to the totals. It writes every field of out,
// in place: a RecipeResult is a few hundred bytes. Every yield.None
// factor is 1, so a raw recipe skips the correction without changing a
// bit.
func (r *RecipeInput) aggregate(ingredients []IngredientResult, out *RecipeResult) {
	var total nutrition.Profile
	mapped := 0
	for i := range ingredients {
		total = total.Add(ingredients[i].Profile)
		if ingredients[i].Mapped {
			mapped++
		}
	}
	out.Ingredients = ingredients
	out.Servings = r.Servings
	out.MappedFraction = float64(mapped) / float64(len(ingredients))
	out.Total = total
	out.PerServing = total.Scale(1 / float64(r.Servings))
	if r.Method != yield.None {
		out.Total = yield.Apply(out.Total, r.Method)
		out.PerServing = yield.Apply(out.PerServing, r.Method)
	}
}

// RecipeOutcome pairs a recipe's result with its per-recipe validation
// error, so one malformed recipe (no ingredients, bad servings) does
// not abort a corpus-scale run.
type RecipeOutcome struct {
	Result RecipeResult
	Err    error
}

// estimateRecipeEnv runs one recipe's lines in order on an
// already-held worker environment: all of EstimateRecipe, and the unit
// of work EstimateRecipesInto's pool hands out, which parallelizes
// across recipes rather than within one. It writes the outcome into o,
// whose Result.Ingredients must arrive with capacity for len(r.Phrases)
// results: the caller-provided destination. ctx is checked before every
// line; once it is done the outcome's Err is ctx.Err().
func (e *Estimator) estimateRecipeEnv(ctx context.Context, v view, r *RecipeInput, w *env, o *RecipeOutcome) {
	if err := r.validate(); err != nil {
		*o = RecipeOutcome{Err: err}
		return
	}
	ingredients := o.Result.Ingredients[:len(r.Phrases)]
	done := ctx.Done()
	for i, p := range r.Phrases {
		select {
		case <-done:
			*o = RecipeOutcome{Err: ctx.Err()}
			return
		default:
		}
		ingredients[i] = e.estimateEnv(v, p, w)
	}
	if r.LinesOnly {
		o.Result.Ingredients = ingredients
	} else {
		r.aggregate(ingredients, &o.Result)
	}
	o.Err = nil
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
	// parked in out[i], where estimateRecipeEnv finds it.
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
		w := e.getEnv(v.snap)
		defer e.putEnv(w)
		done := ctx.Done()
		for i := range recipes {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			e.estimateRecipeEnv(ctx, v, &recipes[i], w, &out[i])
		}
		// A recipe cut short by ctx carries ctx.Err() in its outcome, and
		// the call reports it even when that recipe was the last.
		return ctx.Err()
	}
	return e.forEachIndexCtx(ctx, v.snap, len(recipes), workers, func(i int, w *env) {
		e.estimateRecipeEnv(ctx, v, &recipes[i], w, &out[i])
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
