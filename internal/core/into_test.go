package core

import (
	"context"
	"strings"
	"testing"
)

// TestEstimateRecipesIntoValidation pins the size contract: undersized
// out or arena is an error before any estimation happens, and the empty
// batch is a no-op.
func TestEstimateRecipesIntoValidation(t *testing.T) {
	e := NewDefault()
	ctx := context.Background()
	inputs := []RecipeInput{{Phrases: []string{"1 cup milk", "salt"}, Servings: 1}}

	if err := e.EstimateRecipesInto(ctx, nil, 1, nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	err := e.EstimateRecipesInto(ctx, inputs, 1, nil, make([]IngredientResult, 2))
	if err == nil || !strings.Contains(err.Error(), "outcomes") {
		t.Fatalf("undersized out: %v", err)
	}
	err = e.EstimateRecipesInto(ctx, inputs, 1, make([]RecipeOutcome, 1), make([]IngredientResult, 1))
	if err == nil || !strings.Contains(err.Error(), "arena") {
		t.Fatalf("undersized arena: %v", err)
	}
}

// TestEstimateRecipesIntoCancelled pins cancellation on the sequential
// path: a dead context returns ctx.Err() instead of estimating.
func TestEstimateRecipesIntoCancelled(t *testing.T) {
	e := NewDefault()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := []RecipeInput{{Phrases: []string{"1 cup milk"}, Servings: 1}}
	err := e.EstimateRecipesInto(ctx, inputs, 1, make([]RecipeOutcome, 1), make([]IngredientResult, 1))
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
