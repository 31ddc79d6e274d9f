package match

import "nutriprofile/internal/textutil"

// ExactMatcher is the naive string-matching baseline the paper's
// introduction positions itself against ("Previous studies have testified
// the efficiency of string-matching methods on small datasets"): an
// ingredient matches a description only if EVERY preprocessed ingredient
// word appears in the description (full containment), ties broken by
// shorter description then database order. It has no modified-Jaccard
// partial credit, no raw provision, no priority resolution — on a large
// noisy corpus its coverage collapses, which is the gap the paper's
// §II-B heuristics close. Included for the baseline comparison bench.
type ExactMatcher struct {
	m *Matcher
}

// NewExact wraps a prepared Matcher's preprocessed index with
// containment-only semantics.
func NewExact(m *Matcher) *ExactMatcher { return &ExactMatcher{m: m} }

// Match returns the first (shortest-description) food containing every
// query word, or ok=false.
func (e *ExactMatcher) Match(q Query) (Result, bool) {
	anchor, scored, _ := e.m.querySet(q)
	if anchor.Len() == 0 {
		return Result{}, false
	}
	// Lift the scored words into ID space. A word absent from the
	// interned vocabulary appears in no description, so full containment
	// is impossible for the whole query.
	ids := make([]uint32, 0, scored.Len())
	for w := range scored {
		id, ok := e.m.vocab.Lookup(w)
		if !ok {
			return Result{}, false
		}
		ids = append(ids, id)
	}
	want := textutil.NewIDSet(ids)
	bestIdx, bestLen := -1, 1<<31-1
	for d := 0; d < e.m.db.Len(); d++ {
		doc := e.m.docIDs(int32(d))
		if !doc.ContainsAll(want) {
			continue // not full containment
		}
		if doc.Len() < bestLen {
			bestIdx, bestLen = d, doc.Len()
		}
	}
	if bestIdx < 0 {
		return Result{}, false
	}
	food := e.m.db.At(bestIdx)
	return Result{
		NDB: food.NDB(), Desc: food.Desc(), Score: 1.0,
		Matched: scored.Sorted(), index: bestIdx,
	}, true
}
