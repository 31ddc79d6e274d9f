package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestEstimateBatchContextEmpty(t *testing.T) {
	e := NewDefault()
	got, err := e.EstimateBatch(context.Background(), nil, 4)
	if got != nil || err != nil {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}

// TestEstimateBatchContextCancelled pre-cancels the context: no phrase
// may be estimated and the context error must surface.
func TestEstimateBatchContextCancelled(t *testing.T) {
	e := NewDefault()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		got, err := e.EstimateBatch(ctx, []string{"1 cup sugar", "2 eggs"}, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err %v, want context.Canceled", workers, err)
		}
		if got != nil {
			t.Fatalf("workers=%d: expected nil results on cancellation", workers)
		}
	}
}

// TestEstimateBatchContextCancelMidway cancels from inside the work
// function and asserts the pool stops claiming new items once the
// cancellation is visible: after cancel returns, each worker can finish
// at most the item it had already claimed. How many items ran before
// cancel returned is up to the scheduler, so only the count after it
// is bounded.
func TestEstimateBatchContextCancelMidway(t *testing.T) {
	e := NewDefault()
	const n, workers = 10000, 4
	phrases := make([]string, n)
	for i := range phrases {
		phrases[i] = "1 cup sugar"
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran, atCancel atomic.Int64
	err := e.forEachIndexCtx(ctx, e.pin().snap, n, workers, func(i int, _ *env) {
		if ran.Add(1) == 8 {
			cancel()
			atCancel.Store(ran.Load())
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if got, at := ran.Load(), atCancel.Load(); got > at+workers {
		t.Fatalf("ran %d items, %d when cancel returned: more than one claimed item per worker ran after cancellation", got, at)
	}
}

func TestEstimateRecipeContextValidation(t *testing.T) {
	e := NewDefault()
	if _, err := e.EstimateRecipe(context.Background(), RecipeInput{Servings: 4}); err == nil {
		t.Fatal("expected error for empty recipe")
	}
	if _, err := e.EstimateRecipe(context.Background(), RecipeInput{Phrases: []string{"salt"}}); err == nil {
		t.Fatal("expected error for zero servings")
	}
}

// TestEstimateRecipeContextDeadline gives a huge recipe a 1ns budget.
func TestEstimateRecipeContextDeadline(t *testing.T) {
	e := NewDefault()
	phrases := make([]string, 256)
	for i := range phrases {
		phrases[i] = "2 cups flour"
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := e.EstimateRecipe(ctx, RecipeInput{Phrases: phrases, Servings: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
}
