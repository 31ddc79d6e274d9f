package match

import (
	"slices"

	"nutriprofile/internal/textutil"
)

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
	a := e.m.getArena()
	defer e.m.putArena(a)
	// A scored word absent from the interned vocabulary appears in no
	// description, so full containment is impossible for the whole query.
	if !a.prepare(e.m, q) || len(a.ids) != a.scoredLen {
		return Result{}, false
	}
	want := textutil.NewIDSet(a.ids)
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
	matched := slices.Clone(a.words)
	slices.Sort(matched)
	return Result{
		NDB: food.NDB(), Desc: food.Desc(), Score: 1.0,
		Matched: matched, index: bestIdx,
	}, true
}
