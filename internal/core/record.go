package core

import (
	"nutriprofile/internal/match"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/nutrition"
)

// record is the compact, immutable form in which the phrase cache holds
// one memoized phrase result. The cache stores it by value inside its
// memo entry, and a hit expands it through the reference the cache hands
// out rather than copying it out first (DESIGN.md §12). A record is never
// written after it is stored.
//
// It leaves out two IngredientResult fields. Phrase is the caller's
// verbatim spelling, which a hit fills in. Profile is rebuilt on a hit
// as per100g.ForGrams(grams) — the miss path's own arithmetic on the
// same inputs, so a hit stays byte-identical to recomputation.
// per100g points into the table's nutrient column (usda.Row.Per100g),
// so a record holds no copy of the food.
// TestRecordLayout pins the size: a new IngredientResult field lands
// here too, and must not silently re-inflate the cache.
type record struct {
	per100g    *nutrition.Profile // the matched food's; nil when unmatched
	extraction ner.Extraction
	match      match.Result
	quantity   float64
	unit       string
	grams      float64
	unitOrigin UnitOrigin
	gramsVia   GramsVia
	matched    bool
	mapped     bool
}

// record compacts a miss path's result, computed against the food
// whose per-100 g profile is per100g.
func (r *IngredientResult) record(per100g *nutrition.Profile) record {
	return record{
		per100g:    per100g,
		extraction: r.Extraction,
		match:      r.Match,
		quantity:   r.Quantity,
		unit:       r.Unit,
		grams:      r.Grams,
		unitOrigin: r.UnitOrigin,
		gramsVia:   r.GramsVia,
		matched:    r.Matched,
		mapped:     r.Mapped,
	}
}

// result expands the record into the IngredientResult the miss path
// returned, spelled as phrase.
func (rec *record) result(phrase string) IngredientResult {
	r := IngredientResult{
		Phrase:     phrase,
		Extraction: rec.extraction,
		Match:      rec.match,
		Matched:    rec.matched,
		Quantity:   rec.quantity,
		Unit:       rec.unit,
		UnitOrigin: rec.unitOrigin,
		GramsVia:   rec.gramsVia,
		Grams:      rec.grams,
		Mapped:     rec.mapped,
	}
	if rec.mapped {
		r.Profile = rec.per100g.ForGrams(rec.grams)
	}
	return r
}
