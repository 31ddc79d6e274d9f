// Mealplan: weekly dietary analytics over multiple recipes — the
// "dietary analytics" application the paper's abstract motivates.
//
// The example estimates seven dinners, sums the per-serving profiles into
// a weekly intake, and checks it against reference daily values.
//
//	go run ./examples/mealplan
package main

import (
	"context"
	"fmt"
	"log"

	"nutriprofile/internal/core"
	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/report"
)

// dinner is one night's recipe.
type dinner struct {
	name        string
	servings    int
	ingredients []string
}

var week = []dinner{
	{"Monday — Spaghetti Marinara", 4, []string{
		"8 oz pasta",
		"2 cups marinara sauce",
		"2 tablespoons olive oil",
		"2 cloves garlic , minced",
		"1/4 cup parmesan cheese , grated",
	}},
	{"Tuesday — Chicken Stir-fry", 3, []string{
		"2 chicken breasts , cubed",
		"2 tablespoons soy sauce",
		"1 tablespoon sesame oil",
		"1 red bell pepper , sliced",
		"2 cups broccoli florets",
		"1 cup white rice",
	}},
	{"Wednesday — Lentil Soup", 4, []string{
		"1 cup red lentils , rinsed",
		"4 cups vegetable broth",
		"1 onion , chopped",
		"2 carrots , diced",
		"1 teaspoon ground cumin",
		"1 tablespoon olive oil",
	}},
	{"Thursday — Beef Tacos", 4, []string{
		"1 lb lean ground beef",
		"8 flour tortillas",
		"1 cup cheddar cheese , shredded",
		"1 cup salsa",
		"2 cups iceberg lettuce , shredded",
	}},
	{"Friday — Baked Salmon", 2, []string{
		"2 salmon fillets",
		"1 tablespoon olive oil",
		"1 lemon , juiced",
		"1/2 teaspoon salt",
		"1/4 teaspoon black pepper",
	}},
	{"Saturday — Vegetable Curry", 4, []string{
		"1 can coconut milk",
		"2 potatoes , cubed",
		"1 cup green peas",
		"1 tablespoon curry powder",
		"1 onion , chopped",
		"1 cup white rice",
	}},
	{"Sunday — Mushroom Omelette", 2, []string{
		"4 eggs , beaten",
		"1 cup mushrooms , sliced",
		"2 tablespoons butter",
		"1/4 cup swiss cheese , shredded",
		"1/8 teaspoon salt",
	}},
}

func main() {
	estimator := core.NewDefault()

	tb := report.NewTable("Dinner", "Mapped", "kcal/serving", "Protein g", "Fat g", "Carbs g")
	var weekly nutrition.Profile
	for _, d := range week {
		res, err := estimator.EstimateRecipe(context.Background(), core.RecipeInput{Phrases: d.ingredients, Servings: d.servings})
		if err != nil {
			log.Fatalf("mealplan: %s: %v", d.name, err)
		}
		ps := res.PerServing
		weekly = weekly.Add(ps)
		tb.AddRow(d.name, report.Pct(res.MappedFraction),
			report.F2(ps.EnergyKcal), report.F2(ps.ProteinG),
			report.F2(ps.FatG), report.F2(ps.CarbsG))
	}
	fmt.Print(tb.String())

	// One dinner serving per day — what share of each daily value does
	// the average dinner cover?
	avg := weekly.Scale(1.0 / float64(len(week)))
	fmt.Println("\nAverage dinner vs FDA daily values:")
	cmp := report.NewTable("Nutrient", "Avg dinner", "%DV")
	for _, dv := range avg.PercentDaily() {
		cmp.AddRow(dv.Name,
			fmt.Sprintf("%.1f %s", dv.Amount, dv.Unit),
			report.Pct(dv.Percent))
	}
	fmt.Print(cmp.String())
}
