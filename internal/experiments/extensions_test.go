package experiments

import (
	"testing"

	"nutriprofile/internal/usda"
)

func TestYieldExperiment(t *testing.T) {
	r, err := YieldExperiment(small())
	if err != nil {
		t.Fatal(err)
	}
	if r.Recipes == 0 {
		t.Fatal("no recipes evaluated")
	}
	// Method inference must be near-perfect; ingredient names containing
	// cooking verbs ("beef stew meat" in a prep step) cause rare misses.
	if float64(r.InferredCorrect) < 0.99*float64(r.MethodsInferred) {
		t.Errorf("method inference %d/%d below 99%%", r.InferredCorrect, r.MethodsInferred)
	}
	// The correction must not hurt, and must clearly help the
	// heat-labile nutrient.
	if r.CorrectedMAE > r.UncorrectedMAE+1e-9 {
		t.Errorf("yield correction increased energy MAE: %.2f > %.2f",
			r.CorrectedMAE, r.UncorrectedMAE)
	}
	if r.CorrectedVitC >= r.UncorrectedVitC {
		t.Errorf("yield correction did not reduce vitamin C error: %.2f ≥ %.2f",
			r.CorrectedVitC, r.UncorrectedVitC)
	}
}

func TestFAOExperiment(t *testing.T) {
	r, err := FAOExperiment(small())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's prediction: incorporating FAO-style data improves
	// coverage on every axis.
	if r.MergedRate < r.PrimaryRate {
		t.Errorf("merged match rate %.4f below primary %.4f", r.MergedRate, r.PrimaryRate)
	}
	if r.MergedMeanMapped <= r.PrimaryMeanMapped {
		t.Errorf("merged mapping %.4f not above primary %.4f",
			r.MergedMeanMapped, r.PrimaryMeanMapped)
	}
	if r.MergedFully <= r.PrimaryFully {
		t.Errorf("merged fully-mapped %d not above primary %d",
			r.MergedFully, r.PrimaryFully)
	}
	if r.RegionalQueries == 0 {
		t.Fatal("no regional queries found in corpus")
	}
	recall := float64(r.RegionalCorrect) / float64(r.RegionalQueries)
	if recall < 0.8 {
		t.Errorf("regional recall %.2f too low; the regional table should map its own foods", recall)
	}
}

func TestTypoExperiment(t *testing.T) {
	r, err := TypoExperiment(small())
	if err != nil {
		t.Fatal(err)
	}
	if r.Corrections == 0 {
		t.Fatal("typo corpus produced no correctable queries")
	}
	if r.FuzzyRate <= r.ExactRate {
		t.Errorf("fuzzy match rate %.4f not above exact %.4f", r.FuzzyRate, r.ExactRate)
	}
	if r.FuzzyAcc < r.ExactAcc {
		t.Errorf("fuzzy accuracy %.4f below exact %.4f", r.FuzzyAcc, r.ExactAcc)
	}
}

func TestRegionalTableIntegrity(t *testing.T) {
	reg := usda.Regional()
	if reg.Len() < 30 {
		t.Errorf("regional table has %d foods, want ≥30", reg.Len())
	}
	merged := usda.WithRegional()
	if merged.Len() != usda.Seed().Len()+reg.Len() {
		t.Errorf("merged table size %d ≠ seed %d + regional %d",
			merged.Len(), usda.Seed().Len(), reg.Len())
	}
	for i := 0; i < reg.Len(); i++ {
		f := reg.At(i)
		if !usda.IsRegionalNDB(f.NDB()) {
			t.Errorf("regional food %q has out-of-range NDB %d", f.Desc(), f.NDB())
		}
		if f.NumWeights() == 0 {
			t.Errorf("regional food %q has no weight rows", f.Desc())
		}
	}
	// Sanity: the paper's flagship example must exist and be matched by
	// the merged matcher.
	found := false
	for i := 0; i < reg.Len(); i++ {
		if reg.At(i).Desc() == "Spice blend, garam masala" {
			found = true
		}
	}
	if !found {
		t.Error("garam masala missing from regional table")
	}
}
