package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
)

// TestServeEstimateHotZeroAllocs enforces the PR's acceptance
// criterion: the steady-state /v1/estimate path — read body, pooled
// decode, cached estimate, pooled encode — performs zero heap
// allocations once the scratch and the phrase cache are warm. The
// net/http transport (Header().Set, WriteHeader, the connection
// buffers) is excluded by construction: answer is exactly the
// per-request work between those layers.
func TestServeEstimateHotZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	s := newTestServer(t, nil)
	body := []byte(`{"phrase":"2 cups all-purpose flour"}`)
	rd := bytes.NewReader(body)
	bs := getBatchScratch()
	defer putBatchScratch(bs)
	ctx := context.Background()

	run := func() {
		rd.Reset(body)
		status, out := s.answer(bs, ctx, rd, estimateGrammar)
		if status != http.StatusOK || len(out) == 0 {
			t.Fatalf("answer: status %d, %d body bytes", status, len(out))
		}
	}
	run() // warm the scratch buffers, pipeline memos, and phrase cache
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("warm estimate hot path allocates: %v allocs/run, want 0", allocs)
	}
}

// TestServeRecipeHotAllocs pins a warm /v1/recipe over the golden
// corpus at zero allocations per recipe. The recipe's lines run in
// order on the calling goroutine, so there is no goroutine, pool closure
// or per-worker state to allocate; the worker environment comes off the
// estimator's free list; every line is a phrase-cache hit expanded into
// the arena's result slice; and decode, validation and encode run in the
// pooled arena.
func TestServeRecipeHotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	s := newTestServer(t, nil)
	recipes := loadCorpus(t)
	bodies := make([][]byte, len(recipes))
	for i, r := range recipes {
		body, err := json.Marshal(RecipeRequest{Ingredients: r.Ingredients, Servings: r.Servings, Method: r.Method})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	rd := bytes.NewReader(nil)
	bs := getBatchScratch()
	defer putBatchScratch(bs)
	ctx := context.Background()

	next := 0
	run := func() {
		rd.Reset(bodies[next%len(bodies)])
		next++
		status, out := s.answer(bs, ctx, rd, recipeGrammar)
		if status != http.StatusOK || len(out) == 0 {
			t.Fatalf("answer: status %d, %d body bytes", status, len(out))
		}
	}
	for range bodies {
		run() // warm the scratch buffers, pipeline memos and phrase cache
	}
	if allocs := testing.AllocsPerRun(20*len(bodies), run); allocs != 0 {
		t.Errorf("warm recipe hot path: %v allocs per recipe, want 0", allocs)
	}
}
