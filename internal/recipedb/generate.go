package recipedb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"nutriprofile/internal/instructions"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/textutil"
	"nutriprofile/internal/units"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/yield"
)

// Config controls corpus generation.
type Config struct {
	// NumRecipes is the corpus size (required, ≥ 1). The paper's corpus
	// has 118,071 recipes; the experiment harness defaults to a smaller
	// sample with the same noise mix.
	NumRecipes int
	// Seed makes generation deterministic.
	Seed int64
	// DB is the composition table gold weights/nutrition are drawn from.
	// Defaults to usda.Seed().
	DB *usda.DB
	// MinIngredients/MaxIngredients bound the ingredient-section length
	// (defaults 4 and 12).
	MinIngredients, MaxIngredients int
	// DualUnitRate is the probability of rendering the §II-C "500 g or 1
	// cup" double-unit noise (default 0.03).
	DualUnitRate float64
	// RegionalRate is the per-ingredient probability, within non-Western
	// cuisines, of drawing a region-specific unmappable ingredient
	// (default 0.18).
	RegionalRate float64
	// ConvertedUnitRate is the probability of rendering a unit the food's
	// weight table lacks but that volume conversion can reach — the
	// paper's "1 teaspoon of butter" case (default 0.08).
	ConvertedUnitRate float64
	// TypoRate is the per-ingredient probability of corrupting one
	// letter of the ingredient name (transposition, deletion or
	// doubling) — the scraped-data misspelling noise class. Default 0
	// (the paper's preprocessing assumes clean tokens); the typo
	// experiment raises it.
	TypoRate float64
}

func (c *Config) fill() error {
	if c.NumRecipes < 1 {
		return errors.New("recipedb: NumRecipes must be ≥ 1")
	}
	if c.DB == nil {
		c.DB = usda.Seed()
	}
	if c.MinIngredients <= 0 {
		c.MinIngredients = 4
	}
	if c.MaxIngredients < c.MinIngredients {
		c.MaxIngredients = c.MinIngredients + 8
	}
	if c.DualUnitRate == 0 {
		c.DualUnitRate = 0.03
	}
	if c.RegionalRate == 0 {
		c.RegionalRate = 0.18
	}
	if c.ConvertedUnitRate == 0 {
		c.ConvertedUnitRate = 0.08
	}
	return nil
}

// seg is one rendered phrase segment with its entity label.
type seg struct {
	text  string
	label ner.Label
}

// generator carries the per-run state.
type generator struct {
	cfg      Config
	rng      *rand.Rand
	mappable []int // catalog indices with ndb != 0
	regional []int // catalog indices with ndb == 0
}

// newGenerator validates cfg and builds the per-run generator state.
func newGenerator(cfg Config) (*generator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	g := &generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	for i, e := range catalog {
		if e.regional {
			if _, ok := usda.Regional().ByNDB(e.ndb); !ok {
				return nil, fmt.Errorf("recipedb: catalog NDB %d missing from regional DB", e.ndb)
			}
			g.regional = append(g.regional, i)
		} else {
			if _, ok := cfg.DB.ByNDB(e.ndb); !ok {
				return nil, fmt.Errorf("recipedb: catalog NDB %d missing from DB", e.ndb)
			}
			g.mappable = append(g.mappable, i)
		}
	}
	return g, nil
}

// Generate renders a deterministic synthetic corpus.
func Generate(cfg Config) (*Corpus, error) {
	g, err := newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	recipes := make([]Recipe, 0, cfg.NumRecipes)
	for id := 1; id <= cfg.NumRecipes; id++ {
		recipes = append(recipes, g.recipe(id))
	}
	return &Corpus{Recipes: recipes}, nil
}

// Each streams the corpus cfg describes, one recipe at a time, without
// materializing it — recipe i here is byte-identical to
// Generate(cfg).Recipes[i] (the generator is a deterministic function of
// the seed), so a paper-scale 118k-recipe corpus can feed a load
// generator in O(1) memory. fn returning false stops early.
func Each(cfg Config, fn func(Recipe) bool) error {
	g, err := newGenerator(cfg)
	if err != nil {
		return err
	}
	for id := 1; id <= cfg.NumRecipes; id++ {
		if !fn(g.recipe(id)) {
			return nil
		}
	}
	return nil
}

// westernCuisineCount marks the prefix of the cuisine list whose recipes
// avoid region-specific ingredients.
const westernCuisineCount = 11

func (g *generator) recipe(id int) Recipe {
	cuisine := cuisines[g.rng.Intn(len(cuisines))]
	regionalOK := false
	for i := westernCuisineCount; i < len(cuisines); i++ {
		if cuisines[i] == cuisine {
			regionalOK = true
			break
		}
	}
	n := g.cfg.MinIngredients + g.rng.Intn(g.cfg.MaxIngredients-g.cfg.MinIngredients+1)
	used := map[int]bool{}
	ings := make([]Ingredient, 0, n)
	var total nutrition.Profile
	for len(ings) < n {
		var ci int
		if regionalOK && len(g.regional) > 0 && g.rng.Float64() < g.cfg.RegionalRate {
			ci = g.regional[g.rng.Intn(len(g.regional))]
		} else {
			ci = g.mappable[g.rng.Intn(len(g.mappable))]
		}
		if used[ci] {
			continue
		}
		used[ci] = true
		ing := g.ingredient(&catalog[ci])
		total = total.Add(g.goldProfile(&catalog[ci], ing.Gold.Grams))
		ings = append(ings, ing)
	}
	servings := 2 + g.rng.Intn(7)
	servingsText := g.servingsText(servings)
	dish := dishWords[g.rng.Intn(len(dishWords))]
	title := fmt.Sprintf("%s %s %s #%d", cuisine,
		strings.Title(catalog[firstKey(used)].names[0]), dish.word, id) //nolint:staticcheck // titles are ASCII
	names := make([]string, len(ings))
	for i := range ings {
		names[i] = ings[i].Gold.Name
	}
	return Recipe{
		ID: id, Title: title, Cuisine: cuisine,
		Servings: servings, ServingsText: servingsText,
		Method: dish.method, Ingredients: ings,
		Instructions: instructions.Generate(names, dish.method, g.rng),
		GoldTotal:    total,
	}
}

// servingsText renders the noisy surface form of a serving count. Most
// recipes publish a clean integer; a minority use ranges, which the
// paper's calorie evaluation excludes as not "well-defined".
func (g *generator) servingsText(n int) string {
	switch g.rng.Intn(10) {
	case 0:
		return fmt.Sprintf("Serves %d", n)
	case 1:
		return fmt.Sprintf("%d servings", n)
	case 2:
		// Range centred on n: ParseServings averages back to n but
		// flags it unclean.
		return fmt.Sprintf("%d-%d servings", n-1, n+1)
	default:
		return strconv.Itoa(n)
	}
}

// dishWords are title nouns that carry the cooking method, so
// yield.InferFromTitle can recover Recipe.Method from the title alone.
var dishWords = []struct {
	word   string
	method yield.Method
}{
	{"Salad", yield.None},
	{"Soup", yield.Boiled},
	{"Stew", yield.Stewed},
	{"Bake", yield.Baked},
	{"Roast", yield.Roasted},
	{"Stir-Fry", yield.Fried},
	{"Grill", yield.Grilled},
	{"Steam Bowl", yield.Steamed},
	{"Casserole", yield.Baked},
	{"Braise", yield.Stewed},
}

func firstKey(m map[int]bool) int {
	best := -1
	for k := range m {
		if best == -1 || k < best {
			best = k
		}
	}
	return best
}

// foodFor resolves the entry's food: the primary table for ordinary
// entries, the FAO-style regional table for regional ones.
func (g *generator) foodFor(e *catalogEntry) (usda.Row, bool) {
	if e.regional {
		return usda.Regional().ByNDB(e.ndb)
	}
	return g.cfg.DB.ByNDB(e.ndb)
}

// goldProfile computes the true nutrition of grams of the entry's food.
func (g *generator) goldProfile(e *catalogEntry, grams float64) nutrition.Profile {
	food, ok := g.foodFor(e)
	if !ok {
		return nutrition.Profile{}
	}
	return food.Per100g().ForGrams(grams)
}

// ingredient renders one catalog entry into a noisy phrase with gold
// annotation.
func (g *generator) ingredient(e *catalogEntry) Ingredient {
	if g.rng.Float64() < g.cfg.DualUnitRate {
		if ing, ok := g.dualUnitIngredient(e); ok {
			return ing
		}
	}
	if e.unitless {
		return g.countIngredient(e)
	}
	return g.unitIngredient(e)
}

// pickWeight selects a weight row of the entry's food matching pred, or
// nil.
func (g *generator) pickWeight(e *catalogEntry, pred func(canonical string, kind units.Kind) bool) *usda.Weight {
	food, ok := g.foodFor(e)
	if !ok {
		return nil
	}
	var cands []usda.Weight
	for j := 0; j < food.NumWeights(); j++ {
		w := food.Weight(j)
		name, known := units.Normalize(w.Unit)
		if !known {
			continue
		}
		k, err := units.KindOf(name)
		if err != nil {
			continue
		}
		if pred(name, k) {
			cands = append(cands, w)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	// Bias toward the food's first matching weight row: SR lists the
	// most natural household measure first, and real recipes do use it
	// most of the time (garlic → clove, flour → cup).
	if len(cands) > 1 && g.rng.Intn(2) == 0 {
		return &cands[0]
	}
	wt := cands[g.rng.Intn(len(cands))]
	return &wt
}

// smallestWeight returns the weight row of the given kind with the
// smallest per-item gram weight, or nil.
func (g *generator) smallestWeight(e *catalogEntry, kind units.Kind) *usda.Weight {
	food, ok := g.foodFor(e)
	if !ok {
		return nil
	}
	var best *usda.Weight
	for j := 0; j < food.NumWeights(); j++ {
		w := food.Weight(j)
		name, known := units.Normalize(w.Unit)
		if !known {
			continue
		}
		if k, err := units.KindOf(name); err != nil || k != kind {
			continue
		}
		if best == nil || w.GramsPerOne() < best.GramsPerOne() {
			best = &w
		}
	}
	return best
}

// maxGoldGramsPerLine caps the true weight of one ingredient line so the
// generator never emits absurd recipes ("15 packages pasta") — real recipe
// lines rarely exceed ~1.5 kg.
const maxGoldGramsPerLine = 1500.0

// countIngredient renders a bare-count or size-counted item: "2 eggs",
// "1 small onion , finely chopped".
func (g *generator) countIngredient(e *catalogEntry) Ingredient {
	// Either a size word (when size rows exist) or a count row. Count
	// rows take the smallest per-item weight (the natural reading of
	// "6 bacon" is slices, not packages).
	var gramsPerOne float64
	size := ""
	sizeWt := g.pickWeight(e, func(_ string, k units.Kind) bool { return k == units.Size })
	countWt := g.smallestWeight(e, units.Count)
	var sizeName string
	if sizeWt != nil {
		sizeName, _ = units.Normalize(sizeWt.Unit)
	}
	useSize := sizeWt != nil && (countWt == nil || g.rng.Intn(2) == 0)
	switch {
	case useSize:
		size = sizeName
		gramsPerOne = sizeWt.GramsPerOne()
	case countWt != nil:
		gramsPerOne = countWt.GramsPerOne()
	default:
		// No usable count/size row: fall back to the food's first weight
		// row for the TRUE weight (the pipeline may still fail to map
		// the unit — that gap is exactly what Fig. 2 measures).
		if food, ok := g.foodFor(e); ok && food.NumWeights() > 0 {
			gramsPerOne = food.Weight(0).GramsPerOne()
		}
		if gramsPerOne == 0 {
			gramsPerOne = 50
		}
	}

	qtyHi := e.qtyHi
	if cap := math.Floor(maxGoldGramsPerLine / gramsPerOne); cap < qtyHi {
		qtyHi = cap
	}
	if qtyHi < e.qtyLo {
		qtyHi = e.qtyLo
	}
	qty := float64(int(e.qtyLo) + g.rng.Intn(int(qtyHi-e.qtyLo)+1))
	grams := qty * gramsPerOne

	var segs []seg
	segs = append(segs, seg{strconv.Itoa(int(qty)), ner.Quantity})
	if useSize {
		segs = append(segs, seg{size, ner.Size})
	}

	nameSegs, _ := g.nameSegments(e)
	segs = append(segs, nameSegs...)
	state := g.appendState(e, &segs)
	return g.assemble(e, segs, Gold{
		NDB: e.ndb, Regional: e.regional,
		Name: joinLabel(segs, ner.Name), State: state,
		Size: size, DryFresh: joinLabel(segs, ner.DF),
		Quantity: qty, Unit: "", Grams: grams,
	})
}

// unitIngredient renders a measured item: "2 1/2 cups flour , sifted".
func (g *generator) unitIngredient(e *catalogEntry) Ingredient {
	var canonical string
	var gramsPerUnit float64
	if g.rng.Float64() < g.cfg.ConvertedUnitRate {
		if c, gpu, ok := g.convertedUnit(e); ok {
			canonical, gramsPerUnit = c, gpu
		}
	}
	if canonical == "" {
		wt := g.pickWeight(e, func(_ string, k units.Kind) bool {
			return k == units.Volume || k == units.Mass || k == units.Count
		})
		if wt != nil {
			name, _ := units.Normalize(wt.Unit)
			canonical, gramsPerUnit = name, wt.GramsPerOne()
		}
	}
	if canonical == "" {
		// Foods without any usable weight row: render a mass unit, which
		// is always resolvable in principle.
		canonical, gramsPerUnit = "gram", 1
	}

	// Clamp the quantity range so heavy units (quart, package, pound)
	// cannot produce absurd lines.
	qtyHi := e.qtyHi
	if cap := maxGoldGramsPerLine / gramsPerUnit; cap < qtyHi {
		qtyHi = cap
	}
	qtyLo := e.qtyLo
	if qtyLo > qtyHi {
		qtyLo = qtyHi
	}
	qty, qtyText := g.quantity(qtyLo, qtyHi)

	var segs []seg
	segs = append(segs, seg{qtyText, ner.Quantity})
	segs = append(segs, seg{g.surface(canonical), ner.Unit})
	nameSegs, _ := g.nameSegments(e)
	segs = append(segs, nameSegs...)
	state := g.appendState(e, &segs)

	return g.assemble(e, segs, Gold{
		NDB: e.ndb, Regional: e.regional,
		Name: joinLabel(segs, ner.Name), State: state,
		DryFresh: joinLabel(segs, ner.DF), Temp: joinLabel(segs, ner.Temp),
		Quantity: qty, Unit: canonical, Grams: qty * gramsPerUnit,
	})
}

// dualUnitIngredient renders the paper's "500 g or 1 cup" noise. Gold
// truth follows the mass spelling.
func (g *generator) dualUnitIngredient(e *catalogEntry) (Ingredient, bool) {
	wt := g.pickWeight(e, func(c string, k units.Kind) bool { return k == units.Volume && c == "cup" })
	if wt == nil {
		return Ingredient{}, false
	}
	cups := float64(1 + g.rng.Intn(2))
	grams := cups * wt.GramsPerOne()
	gramsRounded := math.Round(grams/50) * 50
	if gramsRounded < 50 {
		gramsRounded = 50
	}
	var segs []seg
	segs = append(segs, seg{strconv.Itoa(int(gramsRounded)), ner.Quantity})
	segs = append(segs, seg{"g", ner.Unit})
	segs = append(segs, seg{"or", ner.Out})
	segs = append(segs, seg{strconv.Itoa(int(cups)), ner.Quantity})
	segs = append(segs, seg{g.surface("cup"), ner.Unit})
	nameSegs, _ := g.nameSegments(e)
	segs = append(segs, nameSegs...)
	state := g.appendState(e, &segs)
	return g.assemble(e, segs, Gold{
		NDB: e.ndb, Regional: e.regional,
		Name: joinLabel(segs, ner.Name), State: state,
		Quantity: gramsRounded, Unit: "gram", Grams: gramsRounded,
	}), true
}

// convertedUnit picks a volume unit ABSENT from the food's weight table
// but reachable by conversion from a present volume row (§II-C: teaspoon
// of butter via the cup row).
func (g *generator) convertedUnit(e *catalogEntry) (string, float64, bool) {
	base := g.pickWeight(e, func(_ string, k units.Kind) bool { return k == units.Volume })
	if base == nil {
		return "", 0, false
	}
	baseName, _ := units.Normalize(base.Unit)
	food, ok := g.foodFor(e)
	if !ok {
		return "", 0, false
	}
	for _, cand := range []string{"teaspoon", "tablespoon", "cup", "fluid ounce"} {
		if cand == baseName {
			continue
		}
		if _, present := food.GramsForUnit(cand); present {
			continue
		}
		ratio, err := units.Ratio(cand, baseName)
		if err != nil {
			continue
		}
		return cand, ratio * base.GramsPerOne(), true
	}
	return "", 0, false
}

// quantity renders a numeric quantity in one of the corpus's noisy
// spellings and returns its normalized value.
func (g *generator) quantity(lo, hi float64) (float64, string) {
	// Snap to quarters.
	v := lo + g.rng.Float64()*(hi-lo)
	v = math.Round(v*4) / 4
	if v < 0.125 {
		v = 0.25
	}
	whole := math.Floor(v)
	frac := v - whole

	fracText := map[float64]string{0.25: "1/4", 0.5: "1/2", 0.75: "3/4"}
	glyphText := map[float64]string{0.25: "¼", 0.5: "½", 0.75: "¾"}

	switch g.rng.Intn(10) {
	case 0: // range "2-4": value is the average
		loI := int(math.Max(1, whole))
		hiI := loI + 1 + g.rng.Intn(2)
		return float64(loI+hiI) / 2, fmt.Sprintf("%d-%d", loI, hiI)
	case 1: // decimal
		if frac != 0 {
			return v, strconv.FormatFloat(v, 'g', -1, 64)
		}
		fallthrough
	case 2: // unicode glyph
		if frac != 0 {
			if whole == 0 {
				return v, glyphText[frac]
			}
			return v, fmt.Sprintf("%d %s", int(whole), glyphText[frac])
		}
		fallthrough
	default:
		if frac == 0 {
			if v == 1 && g.rng.Intn(8) == 0 {
				return 1, "one"
			}
			return v, strconv.Itoa(int(v))
		}
		if whole == 0 {
			return v, fracText[frac]
		}
		return v, fmt.Sprintf("%d %s", int(whole), fracText[frac])
	}
}

// surface picks a rendering of a canonical unit.
func (g *generator) surface(canonical string) string {
	if alts, ok := unitSurfaces[canonical]; ok {
		return alts[g.rng.Intn(len(alts))]
	}
	return canonical
}

// leadStates are name-variant prefixes that are STATE entities in Table I
// ("lean ground beef" → State "lean ground", Name "beef").
var leadStates = map[string]bool{
	"ground": true, "lean": true, "boneless": true, "skinless": true,
	"canned": true, "raw": true, "ripe": true,
}

// typo corrupts one letter of a word: an adjacent transposition, a
// deletion, or a doubling, never touching the first letter.
func (g *generator) typo(word string) string {
	if len(word) < 4 {
		return word
	}
	i := 1 + g.rng.Intn(len(word)-2)
	switch g.rng.Intn(3) {
	case 0: // transpose word[i] and word[i+1]
		b := []byte(word)
		b[i], b[i+1] = b[i+1], b[i]
		return string(b)
	case 1: // delete word[i]
		return word[:i] + word[i+1:]
	default: // double word[i]
		return word[:i+1] + word[i:]
	}
}

// nameSegments splits a name variant into DF/STATE prefixes and the NAME
// remainder, as the paper's Table I annotation does.
func (g *generator) nameSegments(e *catalogEntry) ([]seg, string) {
	name := e.names[g.rng.Intn(len(e.names))]
	if g.cfg.TypoRate > 0 && g.rng.Float64() < g.cfg.TypoRate {
		words := strings.Fields(name)
		// Corrupt the longest word — the one carrying the signal.
		longest := 0
		for i, w := range words {
			if len(w) > len(words[longest]) {
				longest = i
			}
		}
		words[longest] = g.typo(words[longest])
		name = strings.Join(words, " ")
	}
	toks := strings.Fields(name)
	var segs []seg
	i := 0
	for ; i < len(toks)-1; i++ {
		switch {
		case toks[i] == "fresh" || toks[i] == "dried":
			segs = append(segs, seg{toks[i], ner.DF})
		case toks[i] == "cold" || toks[i] == "warm":
			segs = append(segs, seg{toks[i], ner.Temp})
		case leadStates[toks[i]]:
			segs = append(segs, seg{toks[i], ner.State})
		default:
			segs = append(segs, seg{strings.Join(toks[i:], " "), ner.Name})
			return segs, name
		}
	}
	segs = append(segs, seg{toks[len(toks)-1], ner.Name})
	return segs, name
}

// appendState optionally appends a post-comma state ("… , finely
// chopped") or a pre-positioned state and returns the gold State string
// (including any state tokens already in the name segments).
func (g *generator) appendState(e *catalogEntry, segs *[]seg) string {
	state := e.states[g.rng.Intn(len(e.states))]
	if state != "" {
		if g.rng.Intn(3) > 0 {
			// Post-comma: ", finely chopped".
			*segs = append(*segs, seg{",", ner.Out})
			if g.rng.Intn(3) == 0 {
				*segs = append(*segs, seg{stateAdverbs[g.rng.Intn(len(stateAdverbs))], ner.Out})
			}
			*segs = append(*segs, seg{state, ner.State})
		} else {
			// Pre-name placement: insert before the NAME segment.
			out := make([]seg, 0, len(*segs)+1)
			inserted := false
			for _, s := range *segs {
				if !inserted && s.label == ner.Name {
					out = append(out, seg{state, ner.State})
					inserted = true
				}
				out = append(out, s)
			}
			*segs = out
		}
	}
	return joinLabel(*segs, ner.State)
}

// joinLabel concatenates the text of all segments carrying a label.
func joinLabel(segs []seg, l ner.Label) string {
	var parts []string
	for _, s := range segs {
		if s.label == l {
			parts = append(parts, s.text)
		}
	}
	return strings.Join(parts, " ")
}

// assemble renders segments into the final Ingredient with aligned gold
// token labels.
func (g *generator) assemble(e *catalogEntry, segs []seg, gold Gold) Ingredient {
	texts := make([]string, len(segs))
	for i, s := range segs {
		texts[i] = s.text
	}
	phrase := strings.Join(texts, " ")

	var tokens []string
	var labels []ner.Label
	for _, s := range segs {
		for _, tok := range textutil.Tokenize(s.text) {
			tokens = append(tokens, tok)
			labels = append(labels, s.label)
		}
	}
	// Normalize gold text fields through the tokenizer so they match what
	// an exact tagger would extract (lower-cased, glyphs expanded).
	gold.Name = retokenize(gold.Name)
	gold.State = retokenize(gold.State)
	gold.Temp = retokenize(gold.Temp)
	gold.DryFresh = retokenize(gold.DryFresh)
	_ = e
	return Ingredient{Phrase: phrase, Tokens: tokens, Labels: labels, Gold: gold}
}

func retokenize(s string) string {
	if s == "" {
		return ""
	}
	return strings.Join(textutil.Tokenize(s), " ")
}

// tokenizePhrase re-derives the gold token sequence of a stored phrase
// (Tokens == Tokenize(Phrase) is a corpus invariant).
func tokenizePhrase(phrase string) []string { return textutil.Tokenize(phrase) }
