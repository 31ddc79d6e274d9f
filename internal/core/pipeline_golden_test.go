package core

import (
	"reflect"
	"sync"
	"testing"

	"nutriprofile/internal/cluster"
	"nutriprofile/internal/match"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/postag"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/textutil"
	"nutriprofile/internal/units"
	"nutriprofile/internal/usda"
)

// This file pins the scratch-arena pipeline to the implementation it
// replaced. refEstimateIngredient and its helpers below are the
// pre-arena per-phrase path kept verbatim as an executable golden spec
// (the PR-2 refMatcher pattern): every phrase of the §II-A train corpus
// must estimate byte-identically through both.

// refEstimateIngredient is the old uncached pipeline: allocating
// tokenization, string-feature NER, per-field unit normalization.
func refEstimateIngredient(e *Estimator, phrase string) IngredientResult {
	res := IngredientResult{Phrase: phrase}
	res.Extraction = ner.Extract(e.tagger, phrase)
	if res.Extraction.Name == "" {
		return res
	}

	q := match.Query{
		Name:     res.Extraction.Name,
		State:    res.Extraction.State,
		Temp:     res.Extraction.Temp,
		DryFresh: res.Extraction.DryFresh,
	}
	sess := e.Matcher().NewSession()
	defer sess.Close()
	m, ok := e.rawMatch(q, sess)
	if !ok {
		return res
	}
	res.Match, res.Matched = m, true
	food, _ := e.DB().ByNDB(m.NDB)

	res.Quantity = e.quantity(res.Extraction.Quantity)
	refResolveUnit(e, &res, food)
	if res.Grams > 0 {
		res.Profile = food.Per100g().ForGrams(res.Grams)
		res.Mapped = true
	}
	return res
}

// refResolveUnit is the old §II-C fallback chain, re-tokenizing the
// phrase and normalizing entity fields from their joined strings.
func refResolveUnit(e *Estimator, res *IngredientResult, food usda.Row) {
	tokens := textutil.Tokenize(res.Phrase)

	try := func(unit string, origin UnitOrigin, qty float64) bool {
		grams, via := e.gramsFor(food, unit, qty)
		if grams <= 0 {
			return false
		}
		if grams > maxGramsPerLine {
			if e.opts.DisableRepair {
				return false
			}
			if g2, u2, q2, ok := refRepair(e, food, tokens); ok && g2 <= maxGramsPerLine {
				res.Unit, res.UnitOrigin, res.GramsVia = u2, UnitSearched, GramsWeightRow
				res.Quantity, res.Grams = q2, g2
				if _, exact := food.GramsForUnit(u2); !exact {
					res.GramsVia = GramsConverted
				}
				return true
			}
			return false
		}
		res.Unit, res.UnitOrigin, res.GramsVia = unit, origin, via
		res.Grams = grams
		return true
	}

	if res.Extraction.Unit != "" {
		if name, known := units.Normalize(res.Extraction.Unit); known {
			if try(name, UnitNER, res.Quantity) {
				return
			}
		}
	}
	if res.Extraction.Size != "" {
		if name, known := units.Normalize(res.Extraction.Size); known {
			if try(name, UnitSize, res.Quantity) {
				return
			}
		}
	}
	if !e.opts.DisablePhraseSearch {
		if name, _, ok := units.FindInPhrase(tokens); ok {
			if try(name, UnitSearched, res.Quantity) {
				return
			}
		}
	}
	if !e.opts.DisableMostFrequent {
		if unit := e.mostFrequentUnit(food.NDB()); unit != "" {
			if try(unit, UnitMostFrequent, res.Quantity) {
				return
			}
		}
	}
	if !e.opts.DisableDefaultRow {
		for _, wRow := range food.Food().Weights {
			name, known := units.Normalize(wRow.Unit)
			if !known {
				continue
			}
			if try(name, UnitDefaultRow, res.Quantity) {
				return
			}
			break
		}
	}
}

// refRepair is the old adjacent quantity+unit scan.
func refRepair(e *Estimator, food usda.Row, tokens []string) (grams float64, unit string, qty float64, ok bool) {
	for i := 0; i+1 < len(tokens); i++ {
		q, err := units.ParseQuantity(tokens[i])
		if err != nil || q <= 0 {
			continue
		}
		name, known := units.Normalize(tokens[i+1])
		if !known {
			continue
		}
		g, via := e.gramsFor(food, name, q)
		if via != GramsNone && g > 0 && g <= maxGramsPerLine {
			return g, name, q, true
		}
	}
	return 0, "", 0, false
}

// trainCorpus replicates the §II-A corpus-selection protocol
// (experiments.NERF1): POS-tag every generated phrase, k-means the tag
// frequency vectors, sample a cluster-balanced train+test subset, and
// return the train split — 6,612 phrases at full scale.
func trainCorpus(t *testing.T) []string {
	t.Helper()
	recipes, train, test := 20000, 6612, 2188
	if testing.Short() {
		recipes, train, test = 1500, 800, 260
	}
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: recipes, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	phrases := corpus.Phrases()
	examples := corpus.Examples() // index-aligned with Phrases
	vectors := make([][]float64, len(examples))
	for i, ex := range examples {
		vectors[i] = postag.FrequencyVector(postag.TagPhrase(ex.Tokens))
	}
	const k = 8
	cl, err := cluster.KMeans(vectors, cluster.Config{K: k, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	idx := cluster.SampleBalanced(cl.Assignment, k, train+test, 42)
	if len(idx) < train {
		t.Fatalf("balanced sample too small: %d < %d", len(idx), train)
	}
	out := make([]string, train)
	for i := 0; i < train; i++ {
		out[i] = phrases[idx[i]]
	}
	return out
}

func resultsEqual(a, b IngredientResult) bool {
	return reflect.DeepEqual(a, b)
}

// TestPipelineGoldenCorpus runs the full train corpus through the
// scratch-arena pipeline — uncached, cached, and cache-hit — and
// requires byte-identical results against the pre-arena reference, for
// both the rule tagger and a trained model.
func TestPipelineGoldenCorpus(t *testing.T) {
	phrases := trainCorpus(t)

	modelPhrases := phrases
	if len(modelPhrases) > 1000 {
		modelPhrases = modelPhrases[:1000]
	}
	var rt ner.RuleTagger
	var examples []ner.Example
	for _, p := range modelPhrases[:min(len(modelPhrases), 300)] {
		toks := textutil.Tokenize(p)
		if len(toks) == 0 {
			continue
		}
		examples = append(examples, ner.Example{Tokens: toks, Labels: rt.Tag(toks)})
	}
	model, err := ner.Train(examples, ner.TrainConfig{Epochs: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		tagger  ner.Tagger
		phrases []string
	}{
		{"rule", nil, phrases},
		{"model", model, modelPhrases},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			uncached, err := New(usda.Seed(), tc.tagger, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cached, err := New(usda.Seed(), tc.tagger, Options{CacheSize: 1 << 15})
			if err != nil {
				t.Fatal(err)
			}
			mismatches := 0
			for _, p := range tc.phrases {
				want := refEstimateIngredient(uncached, p)
				if got := uncached.EstimateIngredient(p); !resultsEqual(got, want) {
					t.Errorf("uncached %q:\n got %+v\nwant %+v", p, got, want)
					mismatches++
				}
				if got := cached.EstimateIngredient(p); !resultsEqual(got, want) {
					t.Errorf("cached %q:\n got %+v\nwant %+v", p, got, want)
					mismatches++
				}
				// Second call is a guaranteed phrase-cache hit.
				if got := cached.EstimateIngredient(p); !resultsEqual(got, want) {
					t.Errorf("cache hit %q:\n got %+v\nwant %+v", p, got, want)
					mismatches++
				}
				if mismatches > 10 {
					t.Fatal("too many mismatches, stopping")
				}
			}
		})
	}
}

// TestPipelineGoldenBatchStress runs the corpus through the parallel
// batch path with 8 pooled workers (exercised under -race in CI) and
// requires results identical to the sequential path and the reference —
// pooled scratches must never leak state between phrases or workers.
func TestPipelineGoldenBatchStress(t *testing.T) {
	phrases := trainCorpus(t)
	if len(phrases) > 2000 {
		phrases = phrases[:2000]
	}
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]IngredientResult, len(phrases))
	for i, p := range phrases {
		want[i] = refEstimateIngredient(e, p)
	}

	sequential := estimateAll(t, e, phrases, 1)
	const goroutines = 8
	var wg sync.WaitGroup
	parallel := make([][]IngredientResult, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			parallel[g] = estimateAll(t, e, phrases, 8)
		}(g)
	}
	wg.Wait()

	for i := range phrases {
		if !resultsEqual(sequential[i], want[i]) {
			t.Fatalf("sequential phrase %q:\n got %+v\nwant %+v", phrases[i], sequential[i], want[i])
		}
		for g := 0; g < goroutines; g++ {
			if !resultsEqual(parallel[g][i], want[i]) {
				t.Fatalf("parallel run %d phrase %q:\n got %+v\nwant %+v", g, phrases[i], parallel[g][i], want[i])
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
