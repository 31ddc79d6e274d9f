// Cuisinecompare: per-cuisine nutritional analytics over a generated
// corpus — the "food recommendation systems" angle of the paper's
// introduction, at corpus scale.
//
// The example generates a RecipeDB-style corpus spanning 26 cuisines,
// estimates every recipe, and compares cuisines by median per-serving
// energy and by how completely their recipes map (regional ingredients
// missing from the US-centric composition table lower the mapping rate,
// exactly as §III discusses for 'garam masala').
//
//	go run ./examples/cuisinecompare
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"nutriprofile/internal/core"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/report"
)

func main() {
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: 3000, Seed: 7})
	if err != nil {
		log.Fatalf("cuisinecompare: %v", err)
	}
	estimator := core.NewDefault()
	estimator.ObserveUnits(corpus.Phrases())

	type stats struct {
		kcals  []float64
		mapped []float64
	}
	byCuisine := map[string]*stats{}
	for i := range corpus.Recipes {
		rec := &corpus.Recipes[i]
		phrases := make([]string, len(rec.Ingredients))
		for j := range rec.Ingredients {
			phrases[j] = rec.Ingredients[j].Phrase
		}
		res, err := estimator.EstimateRecipe(context.Background(), core.RecipeInput{Phrases: phrases, Servings: rec.Servings})
		if err != nil {
			log.Fatalf("cuisinecompare: recipe %d: %v", rec.ID, err)
		}
		s := byCuisine[rec.Cuisine]
		if s == nil {
			s = &stats{}
			byCuisine[rec.Cuisine] = s
		}
		s.kcals = append(s.kcals, res.PerServing.EnergyKcal)
		s.mapped = append(s.mapped, res.MappedFraction)
	}

	names := make([]string, 0, len(byCuisine))
	for name := range byCuisine {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		return median(byCuisine[names[i]].kcals) > median(byCuisine[names[j]].kcals)
	})

	tb := report.NewTable("Cuisine", "Recipes", "Median kcal/serving", "Mean mapped")
	for _, name := range names {
		s := byCuisine[name]
		tb.AddRow(name, fmt.Sprint(len(s.kcals)),
			report.F2(median(s.kcals)), report.Pct(mean(s.mapped)))
	}
	fmt.Print(tb.String())
	fmt.Println("\nNote the lower mapping rates of the non-Western cuisines: their")
	fmt.Println("region-specific ingredients (garam masala, paneer, …) are absent from")
	fmt.Println("the US-centric composition table, the coverage gap §III describes.")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
