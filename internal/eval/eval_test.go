package eval

import (
	"math"
	"reflect"
	"testing"

	"nutriprofile/internal/core"
	"nutriprofile/internal/match"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/usda"
)

func corpus(t testing.TB, n int, seed int64) *recipedb.Corpus {
	t.Helper()
	c, err := recipedb.Generate(recipedb.Config{NumRecipes: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEvaluateNERPerfectTagger(t *testing.T) {
	c := corpus(t, 50, 1)
	exs := c.Examples()
	// An oracle that replays gold labels scores 1.0 everywhere.
	oracle := oracleTagger{gold: exs}
	m, err := EvaluateNER(&oracle, exs)
	if err != nil {
		t.Fatal(err)
	}
	if m.TokenAccuracy != 1.0 || m.MicroF1 != 1.0 {
		t.Errorf("oracle scored accuracy=%v microF1=%v", m.TokenAccuracy, m.MicroF1)
	}
}

// oracleTagger replays gold labels by token-sequence lookup.
type oracleTagger struct {
	gold []ner.Example
	m    map[string][]ner.Label
}

func (o *oracleTagger) TagScratch(tokens []string, _ *ner.Scratch) []ner.Label {
	if o.m == nil {
		o.m = map[string][]ner.Label{}
		for _, ex := range o.gold {
			o.m[key(ex.Tokens)] = ex.Labels
		}
	}
	if l, ok := o.m[key(tokens)]; ok {
		return l
	}
	return make([]ner.Label, len(tokens))
}

func key(tokens []string) string {
	s := ""
	for _, t := range tokens {
		s += t + "\x00"
	}
	return s
}

func TestEvaluateNERRuleBaseline(t *testing.T) {
	c := corpus(t, 200, 2)
	m, err := EvaluateNER(ner.RuleTagger{}, c.Examples())
	if err != nil {
		t.Fatal(err)
	}
	// The rule baseline should be strong but imperfect on generator noise.
	if m.MicroF1 < 0.80 {
		t.Errorf("rule baseline micro-F1 = %.3f, suspiciously low", m.MicroF1)
	}
	if m.MicroF1 == 1.0 {
		t.Log("rule baseline perfect — corpus may be too easy")
	}
	if m.PerLabel[ner.Name].Support == 0 || m.PerLabel[ner.Quantity].Support == 0 {
		t.Error("missing support counts for NAME/QUANTITY")
	}
	// The confusion matrix's diagonal dominates and its total equals the
	// token count implied by per-label support.
	diag, total := 0, 0
	for g := ner.Label(0); g < ner.NLabels; g++ {
		for p := ner.Label(0); p < ner.NLabels; p++ {
			total += m.Confusion[g][p]
			if g == p {
				diag += m.Confusion[g][p]
			}
		}
	}
	if total == 0 || float64(diag)/float64(total) != m.TokenAccuracy {
		t.Errorf("confusion diagonal %d/%d inconsistent with accuracy %.4f",
			diag, total, m.TokenAccuracy)
	}
}

func TestEvaluateNERValidation(t *testing.T) {
	if _, err := EvaluateNER(ner.RuleTagger{}, nil); err == nil {
		t.Error("empty gold accepted")
	}
	bad := []ner.Example{{Tokens: []string{"a"}, Labels: []ner.Label{ner.Name, ner.Name}}}
	if _, err := EvaluateNER(ner.RuleTagger{}, bad); err == nil {
		t.Error("misaligned gold accepted")
	}
}

func TestSpanF1(t *testing.T) {
	c := corpus(t, 100, 12)
	exs := c.Examples()
	// Oracle gets a perfect span score.
	oracle := oracleTagger{gold: exs}
	s, err := SpanF1(&oracle, exs)
	if err != nil {
		t.Fatal(err)
	}
	if s.F1 != 1.0 {
		t.Errorf("oracle span F1 = %v", s.F1)
	}
	// Rule baseline: strong but below token-level accuracy (span scoring
	// is strictly harsher).
	spanScore, err := SpanF1(ner.RuleTagger{}, exs)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := EvaluateNER(ner.RuleTagger{}, exs)
	if err != nil {
		t.Fatal(err)
	}
	if spanScore.F1 > tok.TokenAccuracy+1e-9 {
		t.Errorf("span F1 %.4f above token accuracy %.4f", spanScore.F1, tok.TokenAccuracy)
	}
	if spanScore.F1 < 0.7 {
		t.Errorf("rule baseline span F1 %.3f suspiciously low", spanScore.F1)
	}
	t.Logf("rule baseline: span F1 %.4f, token accuracy %.4f", spanScore.F1, tok.TokenAccuracy)
	if _, err := SpanF1(ner.RuleTagger{}, nil); err == nil {
		t.Error("SpanF1 accepted empty gold")
	}
}

// tagOnly decodes every phrase on a fresh scratch, whatever scratch
// evaluation hands it.
type tagOnly struct{ t ner.Tagger }

func (w tagOnly) TagScratch(tokens []string, _ *ner.Scratch) []ner.Label {
	return w.t.TagScratch(tokens, new(ner.Scratch))
}

// TestNERScratchDecodeMatchesTag: decoding every phrase of an
// evaluation into one reused scratch must score exactly as decoding
// each on its own, for the rule tagger and a trained perceptron.
func TestNERScratchDecodeMatchesTag(t *testing.T) {
	exs := corpus(t, 150, 21).Examples()
	model, err := ner.Train(corpus(t, 100, 22).Examples(), ner.TrainConfig{Epochs: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, tagger := range map[string]ner.Tagger{"rule": ner.RuleTagger{}, "perceptron": model} {
		got, err := EvaluateNER(tagger, exs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvaluateNER(tagOnly{tagger}, exs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: EvaluateNER on one scratch = %+v, per phrase = %+v", name, got, want)
		}
		gotSpan, err := SpanF1(tagger, exs)
		if err != nil {
			t.Fatal(err)
		}
		wantSpan, err := SpanF1(tagOnly{tagger}, exs)
		if err != nil {
			t.Fatal(err)
		}
		if gotSpan != wantSpan {
			t.Errorf("%s: SpanF1 on one scratch = %+v, per phrase = %+v", name, gotSpan, wantSpan)
		}
	}
}

func TestKFoldNER(t *testing.T) {
	c := corpus(t, 120, 3)
	exs := c.Examples()
	res, err := KFoldNER(exs, 3, ner.TrainConfig{Epochs: 3, Seed: 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Folds) != 3 {
		t.Fatalf("%d folds", len(res.Folds))
	}
	if res.MeanMicroF1 < 0.85 {
		t.Errorf("CV micro-F1 = %.3f; the paper's regime is ≈0.95", res.MeanMicroF1)
	}
}

func TestKFoldValidation(t *testing.T) {
	exs := corpus(t, 5, 4).Examples()
	if _, err := KFoldNER(exs, 1, ner.TrainConfig{}, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := KFoldNER(exs[:1], 5, ner.TrainConfig{}, 1); err == nil {
		t.Error("fewer examples than folds accepted")
	}
}

func TestMatchRate(t *testing.T) {
	c := corpus(t, 300, 5)
	m := match.NewDefault(usda.Seed())
	lqs := CorpusQueries(c)
	queries := make([]match.Query, len(lqs))
	for i, lq := range lqs {
		queries[i] = lq.Query
	}
	res, err := MatchRate(m, queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unique == 0 || res.Matched > res.Unique {
		t.Fatalf("bad counts: %+v", res)
	}
	// The paper reports 94.49%; the generated corpus includes deliberate
	// unmappables, so expect high-80s to high-90s.
	if res.Rate < 0.75 || res.Rate > 1.0 {
		t.Errorf("match rate %.4f out of plausible band", res.Rate)
	}
	t.Logf("unique=%d matched=%d rate=%.2f%%", res.Unique, res.Matched, 100*res.Rate)
}

func TestMatchRateDedupes(t *testing.T) {
	m := match.NewDefault(usda.Seed())
	q := match.Query{Name: "butter"}
	res, err := MatchRate(m, []match.Query{q, q, q})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unique != 1 {
		t.Errorf("Unique = %d, want 1", res.Unique)
	}
}

func TestMatchAccuracyTopN(t *testing.T) {
	c := corpus(t, 400, 6)
	m := match.NewDefault(usda.Seed())
	res, err := MatchAccuracyTopN(m, CorpusQueries(c), 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated == 0 || res.Correct > res.Evaluated {
		t.Fatalf("bad counts: %+v", res)
	}
	// The paper's manual validation found 71.6%; near-duplicate USDA
	// variants mean exact-NDB accuracy is far below match rate.
	if res.Accuracy < 0.4 {
		t.Errorf("top-N accuracy %.3f too low", res.Accuracy)
	}
	t.Logf("evaluated=%d correct=%d accuracy=%.1f%%", res.Evaluated, res.Correct, 100*res.Accuracy)
}

func TestCompareMatchers(t *testing.T) {
	db := usda.Seed()
	mod := match.NewDefault(db)
	vanOpts := match.DefaultOptions()
	vanOpts.Metric = match.VanillaJaccard
	van := match.New(db, vanOpts)

	c := corpus(t, 300, 7)
	lqs := CorpusQueries(c)
	queries := make([]match.Query, len(lqs))
	for i, lq := range lqs {
		queries[i] = lq.Query
	}
	d, err := CompareMatchers(mod, van, queries)
	if err != nil {
		t.Fatal(err)
	}
	if d.Compared == 0 {
		t.Fatal("nothing compared")
	}
	if d.Different == 0 {
		t.Error("metrics never diverged; paper found 227/1000")
	}
	t.Logf("divergence %d/%d = %.1f%%", d.Different, d.Compared, 100*d.Rate)
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, f := range []float64{0, 0.05, 0.5, 0.95, 1.0, 1.0, -0.1, 1.5} {
		h.Observe(f)
	}
	if h.Total != 8 {
		t.Errorf("Total = %d", h.Total)
	}
	if h.Counts[10] != 3 { // 1.0, 1.0, clamped 1.5
		t.Errorf("Counts[10] = %d, want 3", h.Counts[10])
	}
	if h.Counts[0] != 3 { // 0, 0.05, clamped -0.1
		t.Errorf("Counts[0] = %d, want 3", h.Counts[0])
	}
	if h.BucketLabel(10) != "100%" || h.BucketLabel(0) != "0-10%" {
		t.Error("bucket labels wrong")
	}
}

func TestPercentMapping(t *testing.T) {
	c := corpus(t, 150, 8)
	e := core.NewDefault()
	res, err := PercentMapping(e, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The worker count must not change the result.
	seq, err := PercentMapping(e, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seq != res {
		t.Fatalf("parallel mapping %+v ≠ sequential %+v", res, seq)
	}
	if res.Hist.Total != c.Len() {
		t.Fatalf("histogram total %d ≠ corpus %d", res.Hist.Total, c.Len())
	}
	if res.MeanMapped <= 0.5 {
		t.Errorf("mean mapped %.3f too low", res.MeanMapped)
	}
	if res.FullyMapped == 0 {
		t.Error("no fully mapped recipes; the calorie experiment needs them")
	}
	t.Logf("mean mapped %.1f%%, fully mapped %d/%d",
		100*res.MeanMapped, res.FullyMapped, c.Len())
}

func TestCalorieError(t *testing.T) {
	c := corpus(t, 400, 9)
	e := core.NewDefault()
	e.ObserveUnits(c.Phrases())
	res, err := CalorieError(e, c, CalorieConfig{Seed: 1, RequireFullMapping: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recipes == 0 {
		t.Fatal("no recipes selected")
	}
	// The noise stream is drawn in corpus order after the parallel
	// estimation phase, so every figure must be worker-count invariant.
	seq, err := CalorieError(e, c, CalorieConfig{Seed: 1, RequireFullMapping: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq != res {
		t.Fatalf("parallel calorie result ≠ sequential:\n par: %+v\n seq: %+v", res, seq)
	}
	if res.MeanAbsError < 0 || math.IsNaN(res.MeanAbsError) {
		t.Fatalf("bad error %v", res.MeanAbsError)
	}
	// The paper's figure is 36.42 kcal/serving; on gold-derived data the
	// pipeline should land within the same order of magnitude.
	if res.MeanAbsError > 200 {
		t.Errorf("mean per-serving error %.1f kcal implausibly high", res.MeanAbsError)
	}
	// The bootstrap CI must bracket the point estimate.
	if !(res.CILow <= res.MeanAbsError && res.MeanAbsError <= res.CIHigh) {
		t.Errorf("CI [%.2f, %.2f] does not bracket mean %.2f",
			res.CILow, res.CIHigh, res.MeanAbsError)
	}
	t.Logf("recipes=%d meanAbsErr=%.2f kcal median=%.2f gold=%.0f est=%.0f rel=%.1f%%",
		res.Recipes, res.MeanAbsError, res.MedianError,
		res.MeanGoldKcal, res.MeanEstKcal, 100*res.MeanRelError)
}

func TestCalorieErrorValidation(t *testing.T) {
	e := core.NewDefault()
	if _, err := CalorieError(e, &recipedb.Corpus{}, CalorieConfig{}); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestCorpusQueriesAggregation(t *testing.T) {
	c := corpus(t, 100, 10)
	lqs := CorpusQueries(c)
	if len(lqs) == 0 {
		t.Fatal("no queries")
	}
	seen := map[string]bool{}
	totalFreq := 0
	for _, lq := range lqs {
		k := lq.Query.Name + "|" + lq.Query.State
		if seen[k] {
			t.Fatalf("duplicate query key %q", k)
		}
		seen[k] = true
		totalFreq += lq.Freq
	}
	lines := 0
	for _, r := range c.Recipes {
		lines += len(r.Ingredients)
	}
	if totalFreq != lines {
		t.Errorf("frequency sum %d ≠ ingredient lines %d", totalFreq, lines)
	}
}
