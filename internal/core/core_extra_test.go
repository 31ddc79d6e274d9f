package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"nutriprofile/internal/usda"
	"nutriprofile/internal/yield"
)

func TestEstimateRecipeCooked(t *testing.T) {
	e := NewDefault()
	phrases := []string{"2 cups broccoli florets", "1 tablespoon olive oil"}
	raw, err := e.EstimateRecipe(context.Background(), RecipeInput{Phrases: phrases, Servings: 2})
	if err != nil {
		t.Fatal(err)
	}
	boiled, err := e.EstimateRecipe(context.Background(), RecipeInput{Phrases: phrases, Servings: 2, Method: yield.Boiled})
	if err != nil {
		t.Fatal(err)
	}
	if boiled.PerServing.VitCMg >= raw.PerServing.VitCMg {
		t.Errorf("boiling did not reduce vitamin C: %.1f ≥ %.1f",
			boiled.PerServing.VitCMg, raw.PerServing.VitCMg)
	}
	if boiled.PerServing.EnergyKcal > raw.PerServing.EnergyKcal {
		t.Error("boiling increased energy")
	}
}

func TestFuzzyMatchOption(t *testing.T) {
	exact, err := New(usda.Seed(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fuzzy, err := New(usda.Seed(), nil, Options{FuzzyMatch: true})
	if err != nil {
		t.Fatal(err)
	}
	phrase := "2 cups buttre , softened" // transposed "butter"
	if r := exact.EstimateIngredient(phrase); r.Matched {
		t.Skipf("exact matcher unexpectedly matched %q — vocabulary drift", phrase)
	}
	r := fuzzy.EstimateIngredient(phrase)
	if !r.Matched || !strings.HasPrefix(r.Match.Desc, "Butter") {
		t.Errorf("fuzzy pipeline on %q → matched=%v desc=%q", phrase, r.Matched, r.Match.Desc)
	}
	if !r.Mapped || math.Abs(r.Grams-454) > 1 {
		t.Errorf("fuzzy pipeline grams = %v (mapped=%v), want 454", r.Grams, r.Mapped)
	}
}

func TestOriginAndViaStrings(t *testing.T) {
	origins := map[UnitOrigin]string{
		UnitNone: "none", UnitNER: "ner", UnitSize: "size",
		UnitSearched: "searched", UnitMostFrequent: "most-frequent",
		UnitDefaultRow: "default-row",
	}
	for o, want := range origins {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
	vias := map[GramsVia]string{
		GramsNone: "none", GramsWeightRow: "weight-row", GramsConverted: "converted",
	}
	for v, want := range vias {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}

func TestMergedDBPipeline(t *testing.T) {
	// End-to-end over the merged (seed+regional) table: the paper's
	// flagship unmappable becomes fully mappable.
	e, err := New(usda.WithRegional(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := e.EstimateIngredient("2 teaspoons garam masala")
	if !r.Mapped {
		t.Fatalf("garam masala unmapped on merged table: %+v", r)
	}
	if r.Match.Desc != "Spice blend, garam masala" {
		t.Errorf("matched %q", r.Match.Desc)
	}
	if r.Grams != 4.0 { // 2 tsp × 2.0 g
		t.Errorf("grams = %v, want 4", r.Grams)
	}
}

func TestUnitOriginPriorities(t *testing.T) {
	// The fallback chain must prefer earlier tiers when available.
	e := NewDefault()
	cases := []struct {
		phrase string
		want   UnitOrigin
	}{
		{"2 cups flour", UnitNER},
		{"1 small onion", UnitSize},
		{"garlic and 2 cloves more", UnitSearched},
	}
	for _, c := range cases {
		r := e.EstimateIngredient(c.phrase)
		if !r.Mapped {
			t.Errorf("%q unmapped", c.phrase)
			continue
		}
		if r.UnitOrigin != c.want {
			t.Errorf("%q origin = %v, want %v", c.phrase, r.UnitOrigin, c.want)
		}
	}
}
