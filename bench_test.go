// Package bench is the benchmark harness: one benchmark per table and
// figure of the paper (see DESIGN.md §4). Each benchmark runs the same
// experiment implementation cmd/experiments prints, at a reduced default
// scale, and reports the reproduced headline metric through
// b.ReportMetric so `go test -bench=. -benchmem` regenerates the paper's
// numbers alongside the timings. cmd/experiments runs the identical code
// at full scale.
package bench

import (
	"context"
	"testing"
	"unsafe"

	"nutriprofile/internal/core"
	"nutriprofile/internal/experiments"
	"nutriprofile/internal/match"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/textutil"
	"nutriprofile/internal/usda"
)

// benchParams is the reduced scale used inside benchmarks; large enough
// for the distributions to stabilize, small enough that the whole suite
// runs in seconds.
func benchParams() experiments.Params {
	p := experiments.Defaults()
	p.Recipes = 1500
	p.TrainPhrases = 1200
	p.TestPhrases = 400
	p.Folds = 3
	return p
}

// BenchmarkTableI_NER times the Table I extraction (NER over the twelve
// Piroszhki phrases).
func BenchmarkTableI_NER(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.TableI(nil)
		if len(r.Rows) != 12 {
			b.Fatalf("Table I rows = %d", len(r.Rows))
		}
	}
}

// BenchmarkTableII_Descriptions verifies and times the Table II
// description inventory check.
func BenchmarkTableII_Descriptions(b *testing.B) {
	db := usda.Seed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.TableII(db)
		if len(r.Missing) != 0 {
			b.Fatalf("missing descriptions: %v", r.Missing)
		}
	}
}

// BenchmarkTableIII_ModifiedVsVanilla regenerates the Table III
// comparison and reports the corpus divergence rate (paper: 227/1000 =
// 22.7%).
func BenchmarkTableIII_ModifiedVsVanilla(b *testing.B) {
	p := benchParams()
	var rate float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableIII(p)
		if err != nil {
			b.Fatal(err)
		}
		rate = r.Divergence.Rate
	}
	b.ReportMetric(100*rate, "divergence_%")
}

// BenchmarkTableIV_UnitRelations regenerates the butter unit table and
// reports the derived teaspoon calories (paper's reference: ≈35 kcal).
func BenchmarkTableIV_UnitRelations(b *testing.B) {
	var kcal float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableIV()
		if err != nil {
			b.Fatal(err)
		}
		kcal = r.TeaspoonKcal
	}
	b.ReportMetric(kcal, "tsp_butter_kcal")
}

// BenchmarkFig2_PercentMapping regenerates the Fig. 2 mapping histogram
// and reports the mean mapped fraction.
func BenchmarkFig2_PercentMapping(b *testing.B) {
	p := benchParams()
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(p)
		if err != nil {
			b.Fatal(err)
		}
		mean = r.Mapping.MeanMapped
	}
	b.ReportMetric(100*mean, "mean_mapped_%")
}

// BenchmarkNER_F1 runs the §II-A protocol (POS clustering, balanced
// selection, k-fold CV) and reports the cross-validated micro-F1
// (paper: 0.95).
func BenchmarkNER_F1(b *testing.B) {
	p := benchParams()
	var f1 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.NERF1(p)
		if err != nil {
			b.Fatal(err)
		}
		f1 = r.CV.MeanMicroF1
	}
	b.ReportMetric(f1, "micro_F1")
}

// BenchmarkMatchRate reproduces the §III unique-ingredient match rate
// (paper: 94.49%).
func BenchmarkMatchRate(b *testing.B) {
	p := benchParams()
	var rate float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.MatchRateExperiment(p)
		if err != nil {
			b.Fatal(err)
		}
		rate = r.Rate.Rate
	}
	b.ReportMetric(100*rate, "match_rate_%")
}

// BenchmarkMatchAccuracy reproduces the §III top-N accuracy figure
// (paper: 71.6% on the 5000 most frequent).
func BenchmarkMatchAccuracy(b *testing.B) {
	p := benchParams()
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.MatchAccuracyExperiment(p, 5000)
		if err != nil {
			b.Fatal(err)
		}
		acc = r.Accuracy.Accuracy
	}
	b.ReportMetric(100*acc, "accuracy_%")
}

// BenchmarkCalorieError reproduces the §III per-serving calorie error
// (paper: 36.42 kcal over 2,482 fully-mapped recipes).
func BenchmarkCalorieError(b *testing.B) {
	p := benchParams()
	var mae, med float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.CalorieExperiment(p)
		if err != nil {
			b.Fatal(err)
		}
		mae, med = r.Result.MeanAbsError, r.Result.MedianError
	}
	b.ReportMetric(mae, "mean_abs_kcal")
	b.ReportMetric(med, "median_kcal")
}

// BenchmarkAblation_Matcher times the §II-B heuristic ablation sweep.
func BenchmarkAblation_Matcher(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MatcherAblation(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_UnitChain times the §II-C fallback-chain ablation.
func BenchmarkAblation_UnitChain(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.UnitChainAblation(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYieldCorrection runs the cooking-yield extension experiment
// (paper §I's Bognár remark) and reports the error with and without the
// correction.
func BenchmarkYieldCorrection(b *testing.B) {
	p := benchParams()
	var with, without float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.YieldExperiment(p)
		if err != nil {
			b.Fatal(err)
		}
		with, without = r.CorrectedMAE, r.UncorrectedMAE
	}
	b.ReportMetric(without, "uncorrected_kcal")
	b.ReportMetric(with, "corrected_kcal")
}

// BenchmarkFAOIncorporation runs the multi-database extension experiment
// (paper §III's FAO remark) and reports match rates with and without the
// regional table.
func BenchmarkFAOIncorporation(b *testing.B) {
	p := benchParams()
	var primary, merged float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.FAOExperiment(p)
		if err != nil {
			b.Fatal(err)
		}
		primary, merged = r.PrimaryRate, r.MergedRate
	}
	b.ReportMetric(100*primary, "primary_rate_%")
	b.ReportMetric(100*merged, "merged_rate_%")
}

// BenchmarkTypoTolerance runs the fuzzy-matching extension experiment and
// reports the match rate recovered on a typo-corrupted corpus.
func BenchmarkTypoTolerance(b *testing.B) {
	p := benchParams()
	var exact, fuzzy float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TypoExperiment(p)
		if err != nil {
			b.Fatal(err)
		}
		exact, fuzzy = r.ExactRate, r.FuzzyRate
	}
	b.ReportMetric(100*exact, "exact_rate_%")
	b.ReportMetric(100*fuzzy, "fuzzy_rate_%")
}

// Component micro-benchmarks: the hot paths behind the experiments.

func BenchmarkPipeline_SingleIngredient(b *testing.B) {
	e := core.NewDefault()
	phrases := []string{
		"2 cups all-purpose flour",
		"1 small onion , finely chopped",
		"1/2 lb lean ground beef",
		"1 teaspoon butter",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EstimateIngredient(phrases[i%len(phrases)])
	}
}

func BenchmarkMatcher_SeedDB(b *testing.B) {
	m := match.NewDefault(usda.Seed())
	q := match.Query{Name: "low fat sour cream"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(q)
	}
}

func BenchmarkMatcher_SRScaleDB(b *testing.B) {
	// Real SR has ~7,800 foods; Merged pads the seed to that scale.
	m := match.NewDefault(usda.Merged(7500, 3))
	q := match.Query{Name: "golden harvest beans"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(q)
	}
}

func BenchmarkNER_RuleTagger(b *testing.B) {
	var rt ner.RuleTagger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ner.Extract(rt, "3/4 cup butter or 3/4 cup margarine , softened")
	}
}

// BenchmarkTagPhrase measures one phrase through the NER decode path —
// the Viterbi hot loop the scratch arena rebuilt — for both the rule
// tagger and a perceptron model, allocating vs scratch variants.
func BenchmarkTagPhrase(b *testing.B) {
	phrases := batchCorpus(b, 50)
	var rt ner.RuleTagger
	examples := make([]ner.Example, 0, 200)
	tokenized := make([][]string, len(phrases))
	for i, p := range phrases {
		tokenized[i] = textutil.Tokenize(p)
		if len(examples) < 200 && len(tokenized[i]) > 0 {
			examples = append(examples, ner.Example{Tokens: tokenized[i], Labels: rt.Tag(tokenized[i])})
		}
	}
	model, err := ner.Train(examples, ner.TrainConfig{Epochs: 2, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rule_alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rt.Tag(tokenized[i%len(tokenized)])
		}
	})
	b.Run("rule_scratch", func(b *testing.B) {
		var sc ner.Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rt.TagScratch(tokenized[i%len(tokenized)], &sc)
		}
	})
	b.Run("model_alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model.Tag(tokenized[i%len(tokenized)])
		}
	})
	b.Run("model_scratch", func(b *testing.B) {
		var sc ner.Scratch
		model.TagScratch(tokenized[0], &sc) // warm the scratch outside the loop
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model.TagScratch(tokenized[i%len(tokenized)], &sc)
		}
	})
}

// BenchmarkPipelineScratch measures the estimator's NLP front end
// (tokenize → NER → unit lookups → cache keys) on one warm Scratch —
// the per-phrase cost a batch worker pays on a cache miss. The
// allocs/op column is its budget: 0 on warm phrases.
func BenchmarkPipelineScratch(b *testing.B) {
	phrases := batchCorpus(b, 50)
	var rt ner.RuleTagger
	sc := new(pipeline.Scratch)
	for _, p := range phrases {
		sc.Tokenize(p)
		sc.Extract(rt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := phrases[i%len(phrases)]
		sc.Tokenize(p)
		ex := sc.Extract(rt)
		for j := range sc.Tokens() {
			sc.UnitFor(j)
		}
		sc.PhraseKey()
		sc.JoinKey(ex.Name, ex.State, ex.Temp, ex.DryFresh)
	}
}

// BenchmarkPipelineScratchCold is BenchmarkPipelineScratch's loop over
// never-seen phrases on a warm scratch: each phrase ends in a new
// letters-only salt word, as nutribench's bulk-cold phrases do, so its
// salt token and the field the salt joins are one-offs. The allocs/op
// column is what a one-off costs the front end: 1, that field's string,
// since the scratch memos store a spelling only on its second sighting.
func BenchmarkPipelineScratchCold(b *testing.B) {
	phrases := batchCorpus(b, 50)
	var rt ner.RuleTagger
	sc := new(pipeline.Scratch)
	front := func(p string) {
		sc.Tokenize(p)
		ex := sc.Extract(rt)
		for j := range sc.Tokens() {
			sc.UnitFor(j)
		}
		sc.PhraseKey()
		sc.JoinKey(ex.Name, ex.State, ex.Temp, ex.DryFresh)
	}
	for range 2 {
		for _, p := range phrases {
			front(p)
		}
	}
	// Phrase i's salt is "zq" and i's six base-16 digits in letters
	// without s, e or y (nutribench's alphabet), rewritten in place in
	// its phrase's buffer as the server reuses its request buffers: salts
	// never recur within 16^6 phrases, and building one allocates nothing.
	const letters = "bcdfghjklmnpqrtv"
	bufs := make([][]byte, len(phrases))
	for k, p := range phrases {
		bufs[k] = append([]byte(p), " zq------"...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := bufs[i%len(bufs)]
		salt := buf[len(buf)-6:]
		for k := range salt {
			salt[k] = letters[i>>(20-4*k)&15]
		}
		front(unsafe.String(&buf[0], len(buf)))
	}
}

// batchCorpus flattens a generated corpus to its phrase list — the
// repeated-ingredient workload (salt, butter, olive oil recur across
// nearly every recipe) the memo cache and worker pool target.
func batchCorpus(b *testing.B, recipes int) []string {
	b.Helper()
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: recipes, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return corpus.Phrases()
}

// BenchmarkEstimateBatch measures the concurrent batch-estimation layer
// against the sequential baseline on a repeated-ingredient corpus. The
// acceptance bar (EXPERIMENTS.md) is ≥ 2× throughput for the cached
// variants over `sequential`; `phrases/s` is the comparable metric.
func BenchmarkEstimateBatch(b *testing.B) {
	phrases := batchCorpus(b, 400)
	variants := []struct {
		name      string
		cacheSize int
		workers   int
		warm      bool
	}{
		{"sequential", 0, 1, false},
		{"parallel", 0, 0, false},
		{"cached_warm", 1 << 15, 1, true},
		{"parallel_cached_warm", 1 << 15, 0, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			e, err := core.New(usda.Seed(), nil, core.Options{CacheSize: v.cacheSize})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if v.warm {
				e.EstimateBatch(ctx, phrases, v.workers)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := e.EstimateBatch(ctx, phrases, v.workers)
				if err != nil || len(out) != len(phrases) {
					b.Fatalf("len = %d, want %d (err %v)", len(out), len(phrases), err)
				}
			}
			b.ReportMetric(float64(len(phrases))*float64(b.N)/b.Elapsed().Seconds(), "phrases/s")
		})
	}
}

// BenchmarkEstimateRecipes measures the recipe-level pool end to end,
// the cmd/experiments serving path.
func BenchmarkEstimateRecipes(b *testing.B) {
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: 300, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]core.RecipeInput, len(corpus.Recipes))
	for i := range corpus.Recipes {
		rec := &corpus.Recipes[i]
		phrases := make([]string, len(rec.Ingredients))
		for j := range rec.Ingredients {
			phrases[j] = rec.Ingredients[j].Phrase
		}
		inputs[i] = core.RecipeInput{Phrases: phrases, Servings: rec.Servings}
	}
	for _, v := range []struct {
		name      string
		cacheSize int
		workers   int
	}{
		{"sequential", 0, 1},
		{"parallel_cached", 1 << 15, 0},
	} {
		b.Run(v.name, func(b *testing.B) {
			e, err := core.New(usda.Seed(), nil, core.Options{CacheSize: v.cacheSize})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := e.EstimateRecipes(inputs, v.workers)
				if len(out) != len(inputs) {
					b.Fatalf("len = %d, want %d", len(out), len(inputs))
				}
			}
			b.ReportMetric(float64(len(inputs))*float64(b.N)/b.Elapsed().Seconds(), "recipes/s")
		})
	}
}
