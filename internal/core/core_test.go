package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/usda"
)

func TestEstimateIngredientButterTeaspoon(t *testing.T) {
	// The paper's §II-C worked example: butter has no teaspoon row, so
	// teaspoon must arrive via conversion from the cup row
	// (227 g / 48 tsp ≈ 4.73 g), landing near the paper's "1 teaspoon of
	// butter ≈ 35 calories" reference point.
	e := NewDefault()
	r := e.EstimateIngredient("1 teaspoon butter")
	if !r.Mapped {
		t.Fatalf("not mapped: %+v", r)
	}
	if !strings.HasPrefix(r.Match.Desc, "Butter") {
		t.Fatalf("matched %q", r.Match.Desc)
	}
	if r.GramsVia != GramsConverted {
		t.Errorf("GramsVia = %v, want converted", r.GramsVia)
	}
	if r.Grams < 4.0 || r.Grams > 5.5 {
		t.Errorf("teaspoon of butter = %.2fg, want ≈4.7g", r.Grams)
	}
	if r.Profile.EnergyKcal < 28 || r.Profile.EnergyKcal > 41 {
		t.Errorf("teaspoon of butter = %.1f kcal, want ≈34 (paper: 35)", r.Profile.EnergyKcal)
	}
}

func TestEstimateIngredientExactRow(t *testing.T) {
	e := NewDefault()
	r := e.EstimateIngredient("2 tablespoons butter")
	if !r.Mapped || r.GramsVia != GramsWeightRow {
		t.Fatalf("tbsp butter: %+v", r)
	}
	if r.Grams != 28.4 {
		t.Errorf("2 tbsp butter = %vg, want 28.4", r.Grams)
	}
}

func TestEstimateIngredientMassDirect(t *testing.T) {
	e := NewDefault()
	r := e.EstimateIngredient("100 g all-purpose flour")
	if !r.Mapped {
		t.Fatalf("100g flour unmapped: %+v", r)
	}
	if math.Abs(r.Grams-100) > 0.01 {
		t.Errorf("grams = %v, want 100", r.Grams)
	}
	if math.Abs(r.Profile.EnergyKcal-364) > 15 {
		t.Errorf("100g all-purpose flour = %.0f kcal, want ≈364", r.Profile.EnergyKcal)
	}
	// Bare "flour" is ambiguous across the flour family; the §II-B(i)
	// tie-break still lands on *a* flour with flour-like energy density.
	bare := e.EstimateIngredient("100 g flour")
	if !bare.Mapped || bare.Profile.EnergyKcal < 320 || bare.Profile.EnergyKcal > 380 {
		t.Errorf("bare flour = %.0f kcal (%q)", bare.Profile.EnergyKcal, bare.Match.Desc)
	}
}

func TestEstimateIngredientBareCount(t *testing.T) {
	// "2 eggs": no unit anywhere; the default-row fallback uses the first
	// weight row (large, 50 g).
	e := NewDefault()
	r := e.EstimateIngredient("2 eggs")
	if !r.Mapped {
		t.Fatalf("bare count unmapped: %+v", r)
	}
	if r.UnitOrigin != UnitDefaultRow && r.UnitOrigin != UnitMostFrequent {
		t.Errorf("UnitOrigin = %v", r.UnitOrigin)
	}
	if r.Grams != 100 {
		t.Errorf("2 eggs = %vg, want 100", r.Grams)
	}
}

func TestEstimateIngredientSizeAsUnit(t *testing.T) {
	// "1 small onion": SIZE doubles as the unit; onion has a small row
	// (70 g).
	e := NewDefault()
	r := e.EstimateIngredient("1 small onion , finely chopped")
	if !r.Mapped {
		t.Fatalf("unmapped: %+v", r)
	}
	if r.UnitOrigin != UnitSize {
		t.Errorf("UnitOrigin = %v, want size", r.UnitOrigin)
	}
	if r.Grams != 70 {
		t.Errorf("small onion = %vg, want 70", r.Grams)
	}
}

func TestDualUnitRepair(t *testing.T) {
	// The paper's "500 g or 1 cup" phrase: if the naive pairing computes
	// an implausible weight, the threshold repair must recover the mass
	// reading.
	e := NewDefault()
	r := e.EstimateIngredient("500 g or 1 cup flour")
	if !r.Mapped {
		t.Fatalf("dual-unit unmapped: %+v", r)
	}
	if math.Abs(r.Grams-500) > 1 {
		t.Errorf("dual-unit grams = %v, want 500", r.Grams)
	}
}

func TestThresholdRejectsAbsurdLines(t *testing.T) {
	e := NewDefault()
	r := e.EstimateIngredient("500 cups flour")
	// 500 cups = 62.5 kg; with no repairable pair the line must not map
	// at the absurd weight.
	if r.Mapped && r.Grams > maxGramsPerLine {
		t.Errorf("absurd line mapped at %vg", r.Grams)
	}
}

func TestUnmatchable(t *testing.T) {
	e := NewDefault()
	r := e.EstimateIngredient("2 teaspoons garam masala")
	if r.Matched {
		t.Errorf("garam masala matched %q; the paper cites it as unmappable", r.Match.Desc)
	}
	if r.Mapped || !r.Profile.IsZero() {
		t.Error("unmatched ingredient contributed nutrition")
	}
}

func TestEmptyPhrase(t *testing.T) {
	e := NewDefault()
	r := e.EstimateIngredient("")
	if r.Matched || r.Mapped {
		t.Errorf("empty phrase produced %+v", r)
	}
}

func TestEstimateRecipe(t *testing.T) {
	e := NewDefault()
	phrases := []string{
		"2 cups all-purpose flour",
		"1 cup sugar",
		"1/2 cup butter , softened",
		"2 eggs",
		"1 teaspoon vanilla extract",
		"1/2 teaspoon salt",
	}
	res, err := e.EstimateRecipe(context.Background(), RecipeInput{Phrases: phrases, Servings: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.MappedFraction != 1.0 {
		for _, ir := range res.Ingredients {
			if !ir.Mapped {
				t.Logf("unmapped: %q → matched=%v unit=%q origin=%v", ir.Phrase, ir.Matched, ir.Unit, ir.UnitOrigin)
			}
		}
		t.Fatalf("MappedFraction = %v, want 1.0", res.MappedFraction)
	}
	// Sanity: flour 250g(910) + sugar 200g(774) + butter 113.5g(814) +
	// eggs 100g(143) + vanilla+salt ≈ 2650 kcal total, ≈660/serving.
	if res.Total.EnergyKcal < 2200 || res.Total.EnergyKcal > 3100 {
		t.Errorf("total = %.0f kcal, want ≈2650", res.Total.EnergyKcal)
	}
	if math.Abs(res.PerServing.EnergyKcal*4-res.Total.EnergyKcal) > 0.01 {
		t.Error("per-serving × servings ≠ total")
	}
}

func TestEstimateRecipeValidation(t *testing.T) {
	e := NewDefault()
	if _, err := e.EstimateRecipe(context.Background(), RecipeInput{Servings: 4}); err == nil {
		t.Error("empty recipe accepted")
	}
	if _, err := e.EstimateRecipe(context.Background(), RecipeInput{Phrases: []string{"1 cup milk"}}); err == nil {
		t.Error("zero servings accepted")
	}
}

func TestMostFrequentUnitFallback(t *testing.T) {
	// Feed the stats pass phrases that establish "clove" as garlic's
	// modal unit, then check a unitless garlic line adopts it — the
	// paper's own example.
	e := NewDefault()
	e.ObserveUnits([]string{
		"2 cloves garlic , minced",
		"3 cloves garlic",
		"1 clove garlic",
	})
	r := e.EstimateIngredient("garlic , minced")
	if !r.Mapped {
		t.Fatalf("unmapped: %+v", r)
	}
	if r.UnitOrigin != UnitMostFrequent || r.Unit != "clove" {
		t.Errorf("origin=%v unit=%q, want most-frequent clove", r.UnitOrigin, r.Unit)
	}
	if r.Grams != 3.0 {
		t.Errorf("1 clove garlic = %vg, want 3", r.Grams)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Error("New(nil DB) accepted")
	}
}

func TestAblationSwitches(t *testing.T) {
	db := usda.Seed()
	noConv, err := New(db, nil, Options{DisableConversion: true})
	if err != nil {
		t.Fatal(err)
	}
	r := noConv.EstimateIngredient("1 teaspoon butter")
	if r.GramsVia == GramsConverted {
		t.Error("conversion used despite DisableConversion")
	}

	noDefault, err := New(db, nil, Options{DisableDefaultRow: true, DisableMostFrequent: true})
	if err != nil {
		t.Fatal(err)
	}
	r = noDefault.EstimateIngredient("2 eggs")
	if r.Mapped {
		t.Error("bare count mapped despite disabled fallbacks")
	}
}

func TestCorpusEndToEnd(t *testing.T) {
	// Run the pipeline over a small generated corpus: most lines must
	// map, unmapped lines must be dominated by the region-specific
	// ingredients, and profiles must be valid.
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: 150, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	e := NewDefault()
	e.ObserveUnits(corpus.Phrases())
	var mapped, total, unmappableGold int
	for _, rec := range corpus.Recipes {
		phrases := make([]string, len(rec.Ingredients))
		for i, ing := range rec.Ingredients {
			phrases[i] = ing.Phrase
			if ing.Gold.Regional {
				unmappableGold++
			}
		}
		res, err := e.EstimateRecipe(context.Background(), RecipeInput{Phrases: phrases, Servings: rec.Servings})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Total.Valid() {
			t.Fatalf("invalid total for recipe %d", rec.ID)
		}
		for _, ir := range res.Ingredients {
			total++
			if ir.Mapped {
				mapped++
			}
		}
	}
	frac := float64(mapped) / float64(total)
	goldMappable := 1 - float64(unmappableGold)/float64(total)
	t.Logf("mapped %.1f%% of lines (gold mappable %.1f%%)", 100*frac, 100*goldMappable)
	if frac < 0.80 {
		t.Errorf("mapped fraction %.3f too low", frac)
	}
}

// Property: the estimator is total and profiles are always valid.
func TestEstimateIngredientTotal(t *testing.T) {
	e := NewDefault()
	f := func(phrase string) bool {
		r := e.EstimateIngredient(phrase)
		return r.Profile.Valid() && (!r.Mapped || r.Grams > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEstimateIngredient(b *testing.B) {
	e := NewDefault()
	phrases := []string{
		"2 cups all-purpose flour",
		"1 small onion , finely chopped",
		"1/2 lb lean ground beef",
		"1 teaspoon butter",
		"2-4 cloves garlic , minced",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EstimateIngredient(phrases[i%len(phrases)])
	}
}
