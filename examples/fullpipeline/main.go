// Fullpipeline: every component together — generate a corpus, persist it
// to CSV and read it back, train the perceptron NER on one half, build an
// estimator over the merged (SR + FAO regional) composition table with
// fuzzy matching, and produce yield-corrected per-serving profiles for
// the other half, reporting error against the corpus gold.
//
//	go run ./examples/fullpipeline
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"

	"nutriprofile/internal/core"
	"nutriprofile/internal/instructions"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/report"
	"nutriprofile/internal/units"
	"nutriprofile/internal/usda"
)

func main() {
	// 1. Generate a corpus with every noise class enabled, round-trip it
	// through the CSV interchange format (as a real deployment would).
	corpus, err := recipedb.Generate(recipedb.Config{
		NumRecipes: 600, Seed: 11, TypoRate: 0.02,
	})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := corpus.WriteCSV(&buf); err != nil {
		log.Fatal(err)
	}
	corpus, err = recipedb.ReadCSV(&buf)
	if err != nil {
		log.Fatal(err)
	}
	half := corpus.Len() / 2
	train := &recipedb.Corpus{Recipes: corpus.Recipes[:half]}
	test := &recipedb.Corpus{Recipes: corpus.Recipes[half:]}
	fmt.Printf("corpus: %d recipes (%d train / %d test), CSV round-tripped\n",
		corpus.Len(), half, corpus.Len()-half)

	// 2. Train the NER model on the training half's gold annotations.
	model, err := ner.Train(train.Examples(), ner.TrainConfig{Epochs: 4, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NER model trained: %d features\n", model.FeatureCount())

	// 3. Build the estimator: merged composition table, trained tagger,
	// fuzzy matching; learn unit statistics from the training half.
	estimator, err := core.New(usda.WithRegional(), model, core.Options{FuzzyMatch: true})
	if err != nil {
		log.Fatal(err)
	}
	estimator.ObserveUnits(train.Phrases())

	// 4. Estimate the test half with yield correction and score against
	// the as-cooked gold.
	var mapped, total float64
	var absErr, n float64
	for i := range test.Recipes {
		rec := &test.Recipes[i]
		servings, clean, ok := units.ParseServings(rec.ServingsText)
		if !ok || !clean {
			continue
		}
		phrases := make([]string, len(rec.Ingredients))
		for j := range rec.Ingredients {
			phrases[j] = rec.Ingredients[j].Phrase
		}
		method := instructions.InferMethod(rec.Instructions)
		res, err := estimator.EstimateRecipe(context.Background(), core.RecipeInput{Phrases: phrases, Servings: servings, Method: method})
		if err != nil {
			log.Fatal(err)
		}
		mapped += res.MappedFraction
		total++
		if res.MappedFraction == 1 {
			absErr += math.Abs(res.PerServing.EnergyKcal - rec.GoldCookedPerServing().EnergyKcal)
			n++
		}
	}
	fmt.Printf("test half: mean mapped %s over %.0f clean-servings recipes\n",
		report.Pct(mapped/total), total)
	fmt.Printf("fully-mapped per-serving error vs as-cooked gold: %.1f kcal over %.0f recipes\n",
		absErr/n, n)
}
