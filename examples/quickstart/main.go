// Quickstart: estimate the nutritional profile of one recipe.
//
// This is the minimal end-to-end use of the library: build the default
// estimator (seed USDA-SR database, rule-based NER), hand it the raw
// ingredient section of a recipe, and read back per-serving nutrition.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"nutriprofile/internal/core"
)

func main() {
	// The paper's running example: Piroszhki (Little Russian Pastries).
	ingredients := []string{
		"1/2 lb lean ground beef",
		"1 small onion , finely chopped",
		"1 hard-cooked egg , finely chopped",
		"1 tablespoon fresh dill weed",
		"1/2 teaspoon salt",
		"1/8 teaspoon black pepper",
		"3/4 cup butter , softened",
		"2 cups all-purpose flour",
		"1 teaspoon salt",
		"1/2 cup low-fat sour cream",
		"1 egg yolk",
		"1 tablespoon cold water",
	}
	const servings = 6

	estimator := core.NewDefault()
	result, err := estimator.EstimateRecipe(context.Background(), core.RecipeInput{Phrases: ingredients, Servings: servings})
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}

	fmt.Println("Piroszhki (Little Russian Pastries) — nutritional estimate")
	fmt.Println()
	for _, ing := range result.Ingredients {
		status := "✗ unmatched"
		if ing.Mapped {
			status = fmt.Sprintf("%.0f kcal  (%s)", ing.Profile.EnergyKcal, ing.Match.Desc)
		} else if ing.Matched {
			status = fmt.Sprintf("matched %q but unit unresolved", ing.Match.Desc)
		}
		fmt.Printf("  %-42s %s\n", ing.Phrase, status)
	}
	fmt.Printf("\nIngredients mapped: %.0f%%\n", 100*result.MappedFraction)
	fmt.Printf("\nPer serving (of %d):\n%s", servings, result.PerServing.Table())
}
