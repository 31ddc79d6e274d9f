// Package core assembles the paper's full pipeline (Fig. 1): NER over
// ingredient phrases (§II-A), Modified-Jaccard description matching
// (§II-B), and unit matching with conversion-table and frequency
// fallbacks (§II-C), producing per-ingredient and per-recipe nutritional
// profiles as the sum of ingredient profiles.
package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/units"
	"nutriprofile/internal/usda"
)

// UnitOrigin records how the pipeline obtained an ingredient's unit.
type UnitOrigin uint8

const (
	// UnitNone: no unit could be determined at all.
	UnitNone UnitOrigin = iota
	// UnitNER: the NER model tagged a UNIT token.
	UnitNER
	// UnitSize: the NER SIZE entity served as the unit (§II-C treats
	// small/medium/large as units).
	UnitSize
	// UnitSearched: recovered by scanning the phrase for known units
	// (§II-C: "we searched the ingredient phrase for known units").
	UnitSearched
	// UnitMostFrequent: the ingredient's most frequent corpus unit
	// (§II-C: "the most frequent unit for that particular ingredient").
	UnitMostFrequent
	// UnitDefaultRow: the food's first weight-table row, the final
	// fallback when no frequency data exists.
	UnitDefaultRow
)

func (o UnitOrigin) String() string {
	switch o {
	case UnitNER:
		return "ner"
	case UnitSize:
		return "size"
	case UnitSearched:
		return "searched"
	case UnitMostFrequent:
		return "most-frequent"
	case UnitDefaultRow:
		return "default-row"
	default:
		return "none"
	}
}

// GramsVia records how the unit was turned into grams.
type GramsVia uint8

const (
	// GramsNone: the unit never resolved to a gram weight.
	GramsNone GramsVia = iota
	// GramsWeightRow: an exact row of the food's weight table.
	GramsWeightRow
	// GramsConverted: reached through the volume/mass conversion tables
	// (§II-C: "we can add teaspoon as a unit since the ratio of volume of
	// a cup and a teaspoon is constant").
	GramsConverted
)

func (v GramsVia) String() string {
	switch v {
	case GramsWeightRow:
		return "weight-row"
	case GramsConverted:
		return "converted"
	default:
		return "none"
	}
}

// Options configures the Estimator; zero-value disables nothing. The
// Disable* switches exist for the ablation benchmarks.
type Options struct {
	// FuzzyMatch enables the typo-correction fallback: queries that find
	// no description are retried with out-of-vocabulary words corrected
	// to their closest vocabulary word (extension; see match.MatchFuzzy).
	FuzzyMatch bool
	// CacheSize bounds the estimator's two memoization tiers: a
	// phrase-level cache (normalized phrase → the result's compact
	// record, record.go) and a match-level cache (match.Query →
	// description match). Each tier holds at most CacheSize results; a
	// cached phrase costs about 300 bytes plus its key. Estimation
	// is a pure function of phrase + options + frozen unit statistics,
	// so memoization never changes results; it only skips recomputation
	// for the "salt"/"olive oil" phrases that dominate real corpora.
	// 0 (the zero value) disables every tier. ObserveUnits invalidates
	// the phrase cache, since it changes the most-frequent-unit state.
	CacheSize int
	// CachePolicy selects the memo caches' admission policy: PolicyLRU
	// (the zero value) stores every miss; PolicyTinyLFU stores a key
	// only on its second lookup in an aging period (the doorkeeper,
	// package admit, DESIGN.md §15), so a cold bulk scan leaves nothing
	// resident and skewed production traffic keeps its hot head. The
	// policy can never change estimation results — only which phrases
	// stay cached — so it is a pure performance ablation, threaded to
	// the CLIs as -cache-policy.
	CachePolicy memo.Policy
	// Ablation switches.
	DisableConversion   bool
	DisablePhraseSearch bool
	DisableMostFrequent bool
	DisableDefaultRow   bool
	DisableRepair       bool
}

// Estimator is the end-to-end pipeline. Construct with New. A single
// Estimator is safe for concurrent use by any number of goroutines
// (EstimateIngredient, EstimateRecipe, EstimateBatch, EstimateRecipes,
// and even ObserveUnits may be called concurrently), provided the
// Tagger is itself concurrency-safe — the built-in RuleTagger and a
// trained ner.Model both are, since TagScratch only reads model state
// and writes the caller's scratch.
type Estimator struct {
	// snap is the live (database, matcher, version) snapshot; see
	// snapshot.go for the hot-swap protocol. Every request pins it once
	// and computes entirely against the pinned value.
	snap atomic.Pointer[Snapshot]
	// swapMu serializes snapshot writers (Install) so version stays
	// strictly monotonic. Readers never take it.
	swapMu sync.Mutex

	tagger ner.Tagger
	opts   Options

	// statsMu guards unitStats: ObserveUnits writes under the write
	// lock, the most-frequent-unit fallback reads under the read lock.
	statsMu sync.RWMutex
	// unitStats maps NDB → canonical unit → observation count, feeding
	// the most-frequent-unit fallback. Populated by ObserveUnits.
	unitStats map[int]map[string]int

	// Memoization (nil when Options.CacheSize == 0). The phrase cache
	// holds each result as an immutable record (record.go).
	phraseCache *memo.Cache[record]
	matchCache  *memo.Cache[matchHit]

	// batchState is the batch machinery: worker environments and the
	// batched-flush stat aggregates (batch.go).
	batchState
}

// maxCachedKey bounds the key of any entry a cache tier stores: the
// phrase cache's token stream and the match cache's joined query. The
// tiers bound their entries in count, not bytes, so without it a
// handful of pathological phrases near the request-body limit would
// each stay resident at their full size in every tier. Real ingredient
// phrases are well under 200 bytes; a longer one is recomputed, which
// gives the same result.
const maxCachedKey = 1 << 10

// matchHit is the memoized outcome of one description-match query.
type matchHit struct {
	res match.Result
	ok  bool
}

// New builds an Estimator over a composition table, indexed with
// match.BuildIndex, with the given tagger. A nil tagger selects the
// rule-based baseline.
func New(db *usda.DB, tagger ner.Tagger, opts Options) (*Estimator, error) {
	if db == nil {
		return nil, errors.New("core: nil database")
	}
	return NewWithIndex(db, tagger, opts, match.BuildIndex(db), "boot")
}

// NewWithIndex builds an Estimator whose matcher adopts a scoring index
// instead of re-indexing db: a baked image's, or the one bake.Open or
// New computed with match.BuildIndex. The index is structurally
// validated, and a nil db or idx is an error; source labels the
// snapshot's origin (the table spec or image path). A nil tagger
// selects the rule-based baseline.
func NewWithIndex(db *usda.DB, tagger ner.Tagger, opts Options, idx *match.Index, source string) (*Estimator, error) {
	m, err := match.NewFromIndex(db, match.DefaultOptions(), idx)
	if err != nil {
		return nil, err
	}
	if tagger == nil {
		tagger = ner.RuleTagger{}
	}
	e := &Estimator{
		tagger:    tagger,
		opts:      opts,
		unitStats: map[int]map[string]int{},
	}
	e.snap.Store(&Snapshot{db: db, matcher: m, version: 1, source: source})
	if opts.CacheSize > 0 {
		e.phraseCache = memo.NewPolicy[record](opts.CacheSize, memo.DefaultShards, opts.CachePolicy)
		e.matchCache = memo.NewPolicy[matchHit](opts.CacheSize, memo.DefaultShards, opts.CachePolicy)
	}
	return e, nil
}

// NewDefault builds an Estimator with the rule tagger and default options
// over the seed database.
func NewDefault() *Estimator {
	e, err := New(usda.Seed(), nil, Options{})
	if err != nil {
		panic(err) // unreachable: seed DB is non-nil
	}
	return e
}

// Matcher exposes the live snapshot's description matcher. Callers
// needing matcher+DB consistency should go through Current() instead.
func (e *Estimator) Matcher() *match.Matcher { return e.snap.Load().matcher }

// DB exposes the live snapshot's composition table.
func (e *Estimator) DB() *usda.DB { return e.snap.Load().db }

// IngredientResult is the pipeline output for one phrase. A result
// served from cache is the caller's own copy, rebuilt from the
// phrase cache's immutable record (record.go); only its
// reference-typed parts (Match.Matched) point into that record, so
// they must not be written through. A new field must be carried by
// the record or rebuilt from it, or cache hits would drop it.
type IngredientResult struct {
	Phrase     string
	Extraction ner.Extraction
	Match      match.Result
	Matched    bool // description match found (§II-B succeeded)
	Quantity   float64
	Unit       string // canonical unit, "" if unresolved
	UnitOrigin UnitOrigin
	GramsVia   GramsVia
	Grams      float64
	Profile    nutrition.Profile
	// Mapped reports full success: matched AND grams resolved — the
	// quantity Fig. 2 measures per recipe.
	Mapped bool
}

// RecipeResult aggregates a recipe.
type RecipeResult struct {
	Ingredients []IngredientResult
	Total       nutrition.Profile
	PerServing  nutrition.Profile
	Servings    int
	// MappedFraction is the share of ingredient lines fully mapped to a
	// nutritional profile — the x-axis of the paper's Fig. 2.
	MappedFraction float64
}

// EstimateIngredient runs the full pipeline over one phrase, on a
// worker environment checked out for the call. With
// Options.CacheSize > 0 the result is memoized under the normalized
// (tokenized) phrase: two phrases with identical token streams share
// one cached computation. Treat the result's reference-typed parts as
// read-only (see IngredientResult).
func (e *Estimator) EstimateIngredient(phrase string) IngredientResult {
	v := e.pin()
	w := e.getEnv(v.snap)
	defer e.putEnv(w)
	return e.estimateEnv(v, phrase, w)
}

// estimateCached runs one phrase on a scratch and a match session the
// caller holds: a worker environment's pair, or EstimateIngredientScratch's
// own scratch beside an environment's session. The cache key is the
// normalized token stream (rendered in the scratch, probed without
// allocating), the exact input every downstream stage consumes. Its
// FNV-1a hash is computed once and reused for the cache shard and the
// store — one pass over the key bytes instead of two.
//
// v is the request's pinned read context. Cache stores go through
// PutHashGen with the generation captured at pin time, so a result
// computed against a snapshot that a concurrent Install/ObserveUnits
// has since retired is dropped instead of cached (snapshot.go).
func (e *Estimator) estimateCached(v view, phrase string, sc *pipeline.Scratch, sess *match.Session) IngredientResult {
	if e.phraseCache == nil {
		r, _ := e.estimateIngredient(v, phrase, sc, sess)
		return r
	}
	sc.Tokenize(phrase)
	key := sc.PhraseKey()
	if len(key) > maxCachedKey {
		r, _ := e.estimateTokenized(v, phrase, sc, sess)
		return r
	}
	h := memo.Hash(key)
	if rec := e.phraseCache.GetBytesHashRef(h, key); rec != nil {
		// The cached computation is keyed on the token stream; only the
		// verbatim Phrase field can differ.
		return rec.result(phrase)
	}
	r, per100g := e.estimateTokenized(v, phrase, sc, sess)
	// key still aliases the scratch (nothing downstream of Tokenize
	// touches the phrase-key buffer); the cache copies it only if it
	// stores the result, which under TinyLFU it does for a key's second
	// miss, not its first. The record leaves out the verbatim phrase:
	// the cache is keyed on the token stream, and the serving layer may
	// pass phrases whose backing bytes it reuses after the call.
	e.phraseCache.PutHashGen(h, key, r.record(per100g), v.phraseGen)
	return r
}

// EstimateIngredientScratch is EstimateIngredient on a caller-owned
// scratch, for callers that time or drive the NLP front end on a
// scratch of their own (nutribench's replay). It checks a worker
// environment out for its match session and leaves the environment's
// scratch unused. The phrase may be backed by a caller-reused buffer:
// the caches do not retain it past the call. The same read-only
// contract as EstimateIngredient applies to the returned result.
func (e *Estimator) EstimateIngredientScratch(phrase string, sc *pipeline.Scratch) IngredientResult {
	v := e.pin()
	w := e.getEnv(v.snap)
	defer e.putEnv(w)
	w.phrases++
	return e.estimateCached(v, phrase, sc, w.sess)
}

// matchQuery runs the configured description match, memoized when the
// match cache is enabled. Match results depend on the pinned snapshot's
// matcher, so stores carry the generation captured at pin time and a
// swap purges the cache. The key hash is computed once and shared by
// the shard probe and the store.
func (e *Estimator) matchQuery(v view, q match.Query, sc *pipeline.Scratch, sess *match.Session) (match.Result, bool) {
	if e.matchCache == nil {
		return e.rawMatch(q, sess)
	}
	key := sc.JoinKey(q.Name, q.State, q.Temp, q.DryFresh)
	if len(key) > maxCachedKey {
		return e.rawMatch(q, sess)
	}
	kh := memo.Hash(key)
	if h := e.matchCache.GetBytesHashRef(kh, key); h != nil {
		return h.res, h.ok
	}
	res, ok := e.rawMatch(q, sess)
	e.matchCache.PutHashGen(kh, key, matchHit{res: res, ok: ok}, v.matchGen)
	return res, ok
}

// rawMatch runs the configured description match on the environment's
// session, which is pinned to the request's snapshot's matcher.
func (e *Estimator) rawMatch(q match.Query, sess *match.Session) (match.Result, bool) {
	if e.opts.FuzzyMatch {
		return sess.MatchFuzzy(q)
	}
	return sess.Match(q)
}

// estimateIngredient is the uncached pipeline.
func (e *Estimator) estimateIngredient(v view, phrase string, sc *pipeline.Scratch, sess *match.Session) (IngredientResult, *nutrition.Profile) {
	sc.Tokenize(phrase)
	return e.estimateTokenized(v, phrase, sc, sess)
}

// estimateTokenized runs the pipeline over the phrase already tokenized
// into sc (by estimateCached or estimateIngredient). Everything resolves
// against v's snapshot: matcher and food lookup can never mix databases.
// It also returns the matched food's per-100 g profile (nil when
// unmatched), from which a cached record rebuilds Profile.
func (e *Estimator) estimateTokenized(v view, phrase string, sc *pipeline.Scratch, sess *match.Session) (IngredientResult, *nutrition.Profile) {
	res := IngredientResult{Phrase: phrase}
	res.Extraction = sc.Extract(e.tagger)
	if res.Extraction.Name == "" {
		return res, nil
	}

	q := match.Query{
		Name:     res.Extraction.Name,
		State:    res.Extraction.State,
		Temp:     res.Extraction.Temp,
		DryFresh: res.Extraction.DryFresh,
	}
	m, ok := e.matchQuery(v, q, sc, sess)
	if !ok {
		return res, nil
	}
	res.Match, res.Matched = m, true
	food, _ := v.snap.db.ByNDB(m.NDB)
	per100g := food.Per100g()

	res.Quantity = e.quantity(res.Extraction.Quantity)
	e.resolveUnit(&res, food, sc)
	if res.Grams > 0 {
		res.Profile = per100g.ForGrams(res.Grams)
		res.Mapped = true
	}
	return res, per100g
}

// quantity normalizes the extracted quantity; missing or unparseable
// quantities default to 1, the bare-count reading.
func (e *Estimator) quantity(raw string) float64 {
	if raw == "" {
		return 1
	}
	v, err := units.ParseQuantity(raw)
	if err != nil || v <= 0 {
		return 1
	}
	return v
}

// maxGramsPerLine is the §II-C sanity threshold on quantity×unit
// ("putting a threshold on the quantity per unit"): lines computing
// heavier than this, in grams, trigger quantity/unit re-pairing.
const maxGramsPerLine = 2500

// resolveUnit runs the §II-C fallback chain, filling Unit, UnitOrigin,
// GramsVia and Grams. The phrase's tokens are already in sc; entity
// fields resolve through their recorded first-word index and the
// scratch's memoized unit lookups instead of re-tokenizing.
func (e *Estimator) resolveUnit(res *IngredientResult, food usda.Row, sc *pipeline.Scratch) {
	try := func(unit string, origin UnitOrigin, qty float64) bool {
		grams, via := e.gramsFor(food, unit, qty)
		if grams <= 0 {
			return false
		}
		if grams > maxGramsPerLine {
			if e.opts.DisableRepair {
				return false
			}
			// §II-C threshold: implausibly heavy lines ("500 cups") are
			// re-paired by scanning for an adjacent quantity+unit pair.
			if g2, u2, q2, ok := e.repair(food, sc); ok && g2 <= maxGramsPerLine {
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

	// entityUnit resolves an entity field as a unit. Normalize takes the
	// field's first alphabetic word, which is exactly the token whose
	// index AssembleScratch recorded — so the memoized per-token lookup
	// gives the identical result without re-tokenizing the field.
	entityUnit := func(l ner.Label) (string, bool) {
		if idx := sc.NER.FirstWordIndex(l); idx >= 0 {
			return sc.UnitFor(idx)
		}
		return "", false
	}

	// 1. The NER UNIT entity.
	if res.Extraction.Unit != "" {
		if name, known := entityUnit(ner.Unit); known {
			if try(name, UnitNER, res.Quantity) {
				return
			}
		}
	}
	// 2. The NER SIZE entity doubles as a unit (§II-C).
	if res.Extraction.Size != "" {
		if name, known := entityUnit(ner.Size); known {
			if try(name, UnitSize, res.Quantity) {
				return
			}
		}
	}
	// 3. Phrase scan for the first token resolving to a known unit
	// (units.FindInPhrase, through the scratch's memoized lookups).
	if !e.opts.DisablePhraseSearch {
		for i := range sc.Tokens() {
			name, known := sc.UnitFor(i)
			if !known {
				continue
			}
			if try(name, UnitSearched, res.Quantity) {
				return
			}
			break // first known unit only, as FindInPhrase returns
		}
	}
	// 4. Most frequent unit for this ingredient.
	if !e.opts.DisableMostFrequent {
		if unit := e.mostFrequentUnit(food.NDB()); unit != "" {
			if try(unit, UnitMostFrequent, res.Quantity) {
				return
			}
		}
	}
	// 5. The food's first RESOLVABLE weight row (SR rows with unit
	// spellings outside the alias inventory are skipped).
	if !e.opts.DisableDefaultRow {
		for j := 0; j < food.NumWeights(); j++ {
			name, known := food.WeightUnit(j)
			if !known {
				continue
			}
			if try(name, UnitDefaultRow, res.Quantity) {
				return
			}
			break // first resolvable row only, per §II-C consistency
		}
	}
}

// gramsFor turns (unit, qty) into grams for a food: exact weight row
// first, then the conversion lattice.
func (e *Estimator) gramsFor(food usda.Row, unit string, qty float64) (float64, GramsVia) {
	if gpu, ok := food.GramsForUnit(unit); ok {
		return qty * gpu, GramsWeightRow
	}
	if e.opts.DisableConversion {
		return 0, GramsNone
	}
	kind, err := units.KindOf(unit)
	if err != nil {
		return 0, GramsNone
	}
	switch kind {
	case units.Mass:
		g, err := units.Grams(qty, unit)
		if err != nil {
			return 0, GramsNone
		}
		return g, GramsConverted
	case units.Volume:
		// Bridge through any volume row in the food's weight table
		// (§II-C: add teaspoon for butter via the cup row).
		for j := 0; j < food.NumWeights(); j++ {
			name, known := food.WeightUnit(j)
			if !known {
				continue
			}
			if k, err := units.KindOf(name); err != nil || k != units.Volume {
				continue
			}
			ratio, err := units.Ratio(unit, name)
			if err != nil {
				continue
			}
			return qty * ratio * food.Weight(j).GramsPerOne(), GramsConverted
		}
	}
	return 0, GramsNone
}

// repair scans for adjacent (quantity, unit) token pairs and returns the
// first pair that yields a plausible gram weight — the semi-automated
// recovery for dual-unit phrases like "500 g or 1 cup".
func (e *Estimator) repair(food usda.Row, sc *pipeline.Scratch) (grams float64, unit string, qty float64, ok bool) {
	tokens := sc.Tokens()
	for i := 0; i+1 < len(tokens); i++ {
		q, err := units.ParseQuantity(tokens[i])
		if err != nil || q <= 0 {
			continue
		}
		name, known := sc.UnitFor(i + 1)
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

// mostFrequentUnit returns the modal observed unit for a food, or "".
func (e *Estimator) mostFrequentUnit(ndb int) string {
	e.statsMu.RLock()
	defer e.statsMu.RUnlock()
	counts := e.unitStats[ndb]
	best, bestN := "", 0
	for u, n := range counts {
		if n > bestN || (n == bestN && u < best) {
			best, bestN = u, n
		}
	}
	return best
}

// ObserveUnits performs the corpus statistics pass behind the
// most-frequent-unit fallback: phrases whose units resolve directly
// (NER/size/search) contribute counts keyed by matched food.
//
// It is safe to call concurrently with estimation (and with itself):
// the pass runs in two phases — estimate every phrase (in parallel,
// bypassing the phrase cache), then apply the counts under the write
// lock. The contributing set is identical to a sequential pass because
// the NER/size/search fallbacks never read the frequency map. After the
// counts land, the phrase cache is purged, since entries resolved via
// the most-frequent-unit fallback may now be stale.
func (e *Estimator) ObserveUnits(phrases []string) {
	type obs struct {
		ndb  int
		unit string
	}
	v := e.pin()
	observations := make([]obs, len(phrases))
	e.forEachIndexCtx(context.Background(), v.snap, len(phrases), 0, func(i int, w *env) {
		// Bypass the phrase cache: a cached most-frequent-unit result
		// never contributes, and observation must not pollute the cache
		// with entries that this very pass is about to invalidate.
		r, _ := e.estimateIngredient(v, phrases[i], w.sc, w.sess)
		if !r.Matched || r.Unit == "" {
			return
		}
		switch r.UnitOrigin {
		case UnitNER, UnitSize, UnitSearched:
			observations[i] = obs{ndb: r.Match.NDB, unit: r.Unit}
		}
	})

	e.statsMu.Lock()
	for _, o := range observations {
		if o.unit == "" {
			continue
		}
		m := e.unitStats[o.ndb]
		if m == nil {
			m = map[string]int{}
			e.unitStats[o.ndb] = m
		}
		m[o.unit]++
	}
	e.statsMu.Unlock()

	if e.phraseCache != nil {
		// Unit statistics changed, so cached most-frequent-unit results
		// are stale. The counts landed before this Purge bumps the phrase
		// cache's generation, so an estimate that pins the bumped
		// generation reads the new counts, and one that pinned the old
		// generation has its store dropped or cleared by the purge
		// (snapshot.go). The database did not change: the snapshot and
		// the match cache stay.
		e.phraseCache.Purge()
	}
}
