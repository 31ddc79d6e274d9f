// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a pure function from a Params struct to
// a result struct with a String() rendering; cmd/experiments prints them
// and the repository-root benchmarks time them, so the numbers in
// EXPERIMENTS.md and the bench output come from one implementation.
package experiments

import (
	"fmt"
	"strings"

	"nutriprofile/internal/core"
	"nutriprofile/internal/eval"
	"nutriprofile/internal/match"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/report"
	"nutriprofile/internal/usda"
)

// Params configures the experiment suite.
type Params struct {
	// Recipes is the corpus size for the corpus-wide experiments
	// (Fig. 2, match rate/accuracy, calorie error). The paper's corpus
	// is 118,071 recipes; the default harness size is 20,000, which
	// reproduces the same distributions in seconds.
	Recipes int
	// Seed drives corpus generation and every stochastic step.
	Seed int64
	// TrainPhrases / TestPhrases reproduce the paper's NER corpus sizes
	// (6,612 / 2,188).
	TrainPhrases, TestPhrases int
	// Folds is the cross-validation fold count (paper: 5).
	Folds int
	// Workers sizes the estimation worker pools for the corpus-scale
	// experiments (0: one worker per CPU). Results are identical for
	// any worker count; this only changes wall-clock time.
	Workers int
	// CacheSize bounds the estimator memo caches for corpus runs
	// (0: the default 1<<15 entries; negative: caching disabled).
	// Memoization is result-invariant — see DESIGN.md.
	CacheSize int
}

// Defaults returns the standard parameterization.
func Defaults() Params {
	return Params{
		Recipes:      20000,
		Seed:         42,
		TrainPhrases: 6612,
		TestPhrases:  2188,
		Folds:        5,
	}
}

// fill normalizes zero fields.
func (p *Params) fill() {
	d := Defaults()
	if p.Recipes <= 0 {
		p.Recipes = d.Recipes
	}
	if p.TrainPhrases <= 0 {
		p.TrainPhrases = d.TrainPhrases
	}
	if p.TestPhrases <= 0 {
		p.TestPhrases = d.TestPhrases
	}
	if p.Folds <= 1 {
		p.Folds = d.Folds
	}
	if p.CacheSize == 0 {
		p.CacheSize = 1 << 15
	}
}

// newEstimator builds the estimator the corpus experiments share: the
// rule tagger over db, with the params' memo-cache configuration. The
// repeated-ingredient structure of recipe corpora makes the cache the
// difference between re-scoring "salt" thousands of times and once.
func newEstimator(p Params, db *usda.DB, opts core.Options) (*core.Estimator, error) {
	if p.CacheSize > 0 {
		opts.CacheSize = p.CacheSize
	}
	return core.New(db, nil, opts)
}

// Corpus generates (and caches per-params, when used through a Suite) the
// experiment corpus.
func Corpus(p Params) (*recipedb.Corpus, error) {
	p.fill()
	return recipedb.Generate(recipedb.Config{NumRecipes: p.Recipes, Seed: p.Seed})
}

// ---------------------------------------------------------------------
// Table I — NER tag extraction on the Piroszhki phrases
// ---------------------------------------------------------------------

// TableIPhrases are the twelve ingredient phrases of the paper's Table I
// (the recipe "Piroszhki, Little Russian Pastries").
var TableIPhrases = []string{
	"1/2 lb lean ground beef",
	"1 small onion , finely chopped",
	"1 hard-cooked egg , finely chopped",
	"1 tablespoon fresh dill weed",
	"1/2 teaspoon salt , freshly ground",
	"1/8 teaspoon black pepper , minced",
	"3/4 cup butter or 3/4 cup margarine , softened",
	"2 cups all-purpose flour",
	"1 teaspoon salt",
	"1/2 cup low-fat sour cream",
	"1 egg yolk",
	"1 tablespoon cold water",
}

// TableIResult is the reproduced Table I.
type TableIResult struct {
	Rows []ner.Extraction
}

// TableI extracts entities from the twelve phrases using the rule-based
// tagger (the deterministic reference configuration).
func TableI(tagger ner.Tagger) TableIResult {
	if tagger == nil {
		tagger = ner.RuleTagger{}
	}
	res := TableIResult{}
	for _, p := range TableIPhrases {
		res.Rows = append(res.Rows, ner.Extract(tagger, p))
	}
	return res
}

// String renders the paper's Table I layout.
func (r TableIResult) String() string {
	tb := report.NewTable("Ingredient Phrase", "Name", "State", "Quantity", "Unit", "Temperature", "Dry/Fresh", "Size")
	for i, ex := range r.Rows {
		tb.AddRow(TableIPhrases[i], ex.Name, ex.State, ex.Quantity, ex.Unit, ex.Temp, ex.DryFresh, ex.Size)
	}
	return report.Section("TABLE I. INGREDIENT TAGS EXTRACTION") + tb.String()
}

// ---------------------------------------------------------------------
// Table II — food description examples
// ---------------------------------------------------------------------

// TableIIDescriptions are the nineteen SR descriptions the paper lists.
var TableIIDescriptions = []string{
	"Butter, salted",
	"Butter, whipped, with salt",
	"Butter, without salt",
	"Cheese, blue",
	"Cheese, cottage, creamed, large or small curd",
	"Cheese, mozzarella, whole milk",
	"Milk, reduced fat, fluid, 2% milkfat, with added vitamin A and vitamin D",
	"Milk, reduced fat, fluid, 2% milkfat, with added nonfat milk solids and vitamin A and vitamin D",
	"Milk, reduced fat, fluid, 2% milkfat, protein fortified, with added vitamin A and vitamin D",
	"Milk, indian buffalo, fluid",
	"Milk shakes, thick chocolate",
	"Milk shakes, thick vanilla",
	"Yogurt, plain, whole milk, 8 grams protein per 8 ounce",
	"Yogurt, vanilla, low fat, 11 grams protein per 8 ounce",
	"Egg, whole, raw, fresh",
	"Egg, white, raw, fresh",
	"Egg, yolk, raw, fresh",
	"Apples, raw, with skin",
	"Apples, raw, without skin",
}

// TableIIResult verifies every Table II description exists in the DB.
type TableIIResult struct {
	Rows    []string
	Missing []string
}

// TableII checks the seed database against the paper's example list.
func TableII(db *usda.DB) TableIIResult {
	if db == nil {
		db = usda.Seed()
	}
	have := map[string]bool{}
	for i := 0; i < db.Len(); i++ {
		have[db.At(i).Desc()] = true
	}
	res := TableIIResult{Rows: TableIIDescriptions}
	for _, d := range TableIIDescriptions {
		if !have[d] {
			res.Missing = append(res.Missing, d)
		}
	}
	return res
}

func (r TableIIResult) String() string {
	tb := report.NewTable("S.No", "Description")
	for i, d := range r.Rows {
		tb.AddRow(fmt.Sprint(i+1), d)
	}
	out := report.Section("TABLE II. EXAMPLES OF FOOD DESCRIPTION IN USDA-SR DATABASE") + tb.String()
	if len(r.Missing) > 0 {
		out += "\nMISSING FROM SEED DB: " + strings.Join(r.Missing, "; ") + "\n"
	}
	return out
}

// ---------------------------------------------------------------------
// Table III — modified vs vanilla Jaccard inferences
// ---------------------------------------------------------------------

// TableIIIQueries are the paper's Table III ingredient phrases, as
// (name, state) pairs the NER stage would produce.
var TableIIIQueries = []struct {
	Phrase string
	Query  match.Query
}{
	{"1 cup red lentil", match.Query{Name: "red lentils"}},
	{"1 roma tomato , quartered", match.Query{Name: "roma tomato", State: "quartered"}},
	{"1/4 teaspoon ground coriander", match.Query{Name: "coriander", State: "ground"}},
	{"2 tablespoons tomato paste", match.Query{Name: "tomato paste"}},
	{"1 1/4 cups vegetable broth", match.Query{Name: "vegetable broth"}},
	{"1 can fava beans", match.Query{Name: "fava beans"}},
	{"1 teaspoon ground cayenne pepper", match.Query{Name: "cayenne pepper", State: "ground"}},
	{"1 whole chicken with giblets patted dry and quartered", match.Query{Name: "chicken with giblets", State: "quartered"}},
	{"2 tablespoons sesame seeds", match.Query{Name: "sesame seeds"}},
}

// TableIIIRow is one comparison row.
type TableIIIRow struct {
	Phrase, Name, Modified, Vanilla string
	Differs                         bool
}

// TableIIIResult reproduces both the example table and the corpus-wide
// divergence count (the paper: 227 of 1000 sampled phrases differ).
type TableIIIResult struct {
	Rows       []TableIIIRow
	Divergence eval.Divergence
}

// TableIII compares modified and vanilla Jaccard on the paper's examples
// and on sampled corpus queries.
func TableIII(p Params) (TableIIIResult, error) {
	p.fill()
	db := usda.Seed()
	mod := match.NewDefault(db)
	vanOpts := match.DefaultOptions()
	vanOpts.Metric = match.VanillaJaccard
	van := match.New(db, vanOpts)

	var res TableIIIResult
	for _, tq := range TableIIIQueries {
		rm, okM := mod.Match(tq.Query)
		rv, okV := van.Match(tq.Query)
		row := TableIIIRow{Phrase: tq.Phrase, Name: tq.Query.Name}
		if okM {
			row.Modified = rm.Desc
		}
		if okV {
			row.Vanilla = rv.Desc
		}
		row.Differs = okM != okV || (okM && rm.NDB != rv.NDB)
		res.Rows = append(res.Rows, row)
	}

	corpus, err := Corpus(p)
	if err != nil {
		return res, err
	}
	lqs := eval.CorpusQueries(corpus)
	queries := make([]match.Query, 0, 1000)
	for i, lq := range lqs {
		if i >= 1000 {
			break
		}
		queries = append(queries, lq.Query)
	}
	res.Divergence, err = eval.CompareMatchers(mod, van, queries)
	return res, err
}

func (r TableIIIResult) String() string {
	tb := report.NewTable("Ingredient Phrase", "Food Desc. (Modified JI)", "Food Desc. (Vanilla JI)", "Differs")
	for _, row := range r.Rows {
		diff := ""
		if row.Differs {
			diff = "YES"
		}
		tb.AddRow(row.Phrase, row.Modified, row.Vanilla, diff)
	}
	return report.Section("TABLE III. MODIFIED vs VANILLA JACCARD INFERENCES") +
		tb.String() +
		fmt.Sprintf("\nCorpus divergence: %d of %d sampled queries differ (%s) — paper: 227/1000\n",
			r.Divergence.Different, r.Divergence.Compared, report.Pct(r.Divergence.Rate))
}

// ---------------------------------------------------------------------
// Table IV — ingredient and unit relations
// ---------------------------------------------------------------------

// TableIVResult reproduces the butter weight table plus the derived
// teaspoon row the §II-C conversion adds.
type TableIVResult struct {
	Desc            string
	Weights         []usda.Weight
	DerivedTeaspoon float64 // grams per teaspoon via conversion
	TeaspoonKcal    float64
}

// TableIV renders the "Butter, salted" unit relations.
func TableIV() (TableIVResult, error) {
	db := usda.Seed()
	butter, ok := db.ByNDB(1001)
	if !ok {
		return TableIVResult{}, fmt.Errorf("experiments: butter missing from seed")
	}
	e := core.NewDefault()
	ir := e.EstimateIngredient("1 teaspoon butter")
	return TableIVResult{
		Desc:            butter.Desc(),
		Weights:         butter.Food().Weights,
		DerivedTeaspoon: ir.Grams,
		TeaspoonKcal:    ir.Profile.EnergyKcal,
	}, nil
}

func (r TableIVResult) String() string {
	tb := report.NewTable("ingredient", "seq", "amount", "unit", "grams", "gram per amount")
	for _, w := range r.Weights {
		tb.AddRow(strings.ReplaceAll(r.Desc, ", ", ","), fmt.Sprint(w.Seq),
			report.F2(w.Amount), w.Unit, report.F2(w.Grams), report.F2(w.GramsPerOne()))
	}
	return report.Section("TABLE IV. INGREDIENT AND UNIT RELATIONS") + tb.String() +
		fmt.Sprintf("\nDerived by conversion (§II-C): 1 teaspoon = %.2f g → %.1f kcal (paper's reference: ≈35 kcal)\n",
			r.DerivedTeaspoon, r.TeaspoonKcal)
}

// ---------------------------------------------------------------------
// Fig. 2 — percentage mapping of recipes to nutritional profile
// ---------------------------------------------------------------------

// Fig2Result is the mapping distribution.
type Fig2Result struct {
	Mapping eval.MappingResult
}

// Fig2 runs the pipeline over the corpus and histograms per-recipe mapped
// fractions.
func Fig2(p Params) (Fig2Result, error) {
	p.fill()
	corpus, err := Corpus(p)
	if err != nil {
		return Fig2Result{}, err
	}
	e, err := newEstimator(p, usda.Seed(), core.Options{})
	if err != nil {
		return Fig2Result{}, err
	}
	e.ObserveUnits(corpus.Phrases())
	m, err := eval.PercentMapping(e, corpus, p.Workers)
	return Fig2Result{Mapping: m}, err
}

func (r Fig2Result) String() string {
	labels := make([]string, 11)
	values := make([]int, 11)
	for i := 0; i <= 10; i++ {
		labels[i] = r.Mapping.Hist.BucketLabel(i)
		values[i] = r.Mapping.Hist.Counts[i]
	}
	return report.Section("FIG. 2. PERCENTAGE MAPPING OF RECIPES TO NUTRITIONAL PROFILE") +
		report.Bar(labels, values, 50) +
		fmt.Sprintf("\nMean mapped fraction: %s; fully mapped recipes: %d of %d\n",
			report.Pct(r.Mapping.MeanMapped), r.Mapping.FullyMapped, r.Mapping.Hist.Total)
}
