package match

import "nutriprofile/internal/textutil"

// oovID marks a normalized query word that appears in no description.
// Out-of-vocabulary words still count toward |A| (and the vanilla-Jaccard
// union) exactly as they did in string space — they simply can never
// intersect, so they own no posting list and no real term ID.
const oovID = ^uint32(0)

// arena is the per-query scratch state Rank scores into. One arena holds
// dense per-document accumulators (intersection count and priority sum)
// plus every slice the query-preparation and selection phases need, so a
// warm query allocates nothing: arenas are recycled through the
// Matcher's sync.Pool and all slices are re-sliced to length 0, never
// freed.
//
// The accumulators are epoch-stamped: acc[d].stamp == epoch means
// document d's counters belong to the current query, anything else is
// stale garbage from an earlier query that costs nothing to "clear". The
// epoch counter bumping per query replaces an O(docs) memset; on the
// (once per 4 billion queries) wraparound the stamps are actually
// cleared once and the epoch restarts at 1.
type arena struct {
	epoch uint32

	touched []int32 // documents marked live this query (anchor hits)
	cands   []cand  // selection buffer for the bounded top-k heap

	// Pruned-engine scratch (prune.go): packed per-document accumulators
	// (one cache line instead of three per doc touch — the walks access
	// documents randomly, so stamp/inter/pri on one 12-byte entry halve
	// the engine's memory traffic versus the spec's parallel arrays),
	// the df-ordered term schedule, and the histogram of live candidates'
	// intersection counts the bar tests read. Grown on demand and reused
	// across queries like every other arena slice.
	acc   []accEntry
	sched []schedTerm
	histo []int32

	// Query-preparation scratch (see prepare).
	toks      []string // raw lower-cased word tokens
	norm      []string // normalized tokens, name first then extras
	words     []string // distinct scored words (string space, |A| = len)
	wordIDs   []uint32 // words' term IDs, oovID for unindexed words
	ids       []uint32 // distinct in-vocabulary scored term IDs
	anchorIDs []uint32 // term IDs candidates must contain one of

	scoredLen   int  // |A|, counting out-of-vocabulary words
	rawEligible bool // §II-B(g) provision applies to this query

	longest int // longest query, in bytes, since the arena was last reset
}

// accEntry is the pruned engine's per-document accumulator: the epoch
// stamp and both counters on a single cache line.
type accEntry struct {
	stamp uint32 // == arena epoch ⇔ inter/pri are live this query
	inter int32  // |A ∩ doc|
	pri   int32  // Σ matched-term priorities (§II-B(h))
}

func newArena(docs int) *arena {
	return &arena{acc: make([]accEntry, docs)}
}

// maxRetainedQuery is the longest query, in bytes, whose buffers an
// arena keeps once released (trim). The query-preparation slices grow
// to the longest query seen, and their stale entries view its words,
// so one pathological phrase would otherwise stay pinned, with buffers
// several times its size, by a pooled arena or a worker's session.
// Ingredient queries are a handful of words.
const maxRetainedQuery = 4 << 10

// trim drops every query-sized buffer, keeping only the per-document
// accumulators, when a query since the last reset was longer than
// maxRetainedQuery.
func (a *arena) trim() {
	if a.longest > maxRetainedQuery {
		*a = arena{epoch: a.epoch, acc: a.acc}
	}
}

// nextEpoch starts a new query's accumulator generation.
func (a *arena) nextEpoch() uint32 {
	a.epoch++
	if a.epoch == 0 { // wraparound: invalidate stale stamps for real
		clear(a.acc)
		a.epoch = 1
	}
	return a.epoch
}

// prepare normalizes the query into ID space: the distinct scored word
// set A of §II-B(e) (words, wordIDs, scoredLen), the in-vocabulary
// scoring terms (ids), the anchor terms candidates must share (anchorIDs,
// per §II-B(a) name anchoring when enabled), and the §II-B(g) raw
// eligibility. It reports false when the anchor set is empty — the query
// has no matchable content, mirroring the anchor.Len() == 0 early return
// of the string-space implementation.
func (a *arena) prepare(m *Matcher, q Query) bool {
	a.longest = max(a.longest, len(q.Name)+len(q.State)+len(q.Temp)+len(q.DryFresh))
	a.norm, a.toks = appendNormalizedTokens(a.norm[:0], q.Name, a.toks)
	nameLen := len(a.norm)
	if q.State != "" {
		a.norm, a.toks = appendNormalizedTokens(a.norm, q.State, a.toks)
	}
	if q.Temp != "" {
		a.norm, a.toks = appendNormalizedTokens(a.norm, q.Temp, a.toks)
	}
	if q.DryFresh != "" {
		a.norm, a.toks = appendNormalizedTokens(a.norm, q.DryFresh, a.toks)
	}

	// Distinct scored words. Queries are phrase-sized (a handful of
	// words), so linear-scan dedup beats any map both in time and in
	// allocations.
	a.words = a.words[:0]
	a.wordIDs = a.wordIDs[:0]
	rawInScored := false
	for _, w := range a.norm {
		dup := false
		for _, seen := range a.words {
			if seen == w {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		a.words = append(a.words, w)
		id, ok := m.vocab.Lookup(w)
		if !ok {
			id = oovID
		}
		a.wordIDs = append(a.wordIDs, id)
		if w == "raw" {
			rawInScored = true
		}
	}
	a.scoredLen = len(a.words)

	a.ids = a.ids[:0]
	for _, id := range a.wordIDs {
		if id != oovID {
			a.ids = append(a.ids, id)
		}
	}

	a.anchorIDs = a.anchorIDs[:0]
	if m.opts.NameAnchoring {
		if nameLen == 0 {
			return false
		}
		for _, w := range a.norm[:nameLen] {
			if id, ok := m.vocab.Lookup(w); ok {
				a.anchorIDs = append(a.anchorIDs, id)
			}
		}
		a.anchorIDs = textutil.SortDedupIDs(a.anchorIDs)
	} else {
		if len(a.norm) == 0 {
			return false
		}
		a.anchorIDs = append(a.anchorIDs, a.ids...)
	}

	a.rawEligible = m.opts.RawProvision && q.State == "" && !rawInScored

	if m.opts.ExplainMatched {
		// Co-sort words/wordIDs lexically so Result.Matched comes out in
		// the same sorted order the eager implementation produced.
		for i := 1; i < len(a.words); i++ {
			for j := i; j > 0 && a.words[j] < a.words[j-1]; j-- {
				a.words[j], a.words[j-1] = a.words[j-1], a.words[j]
				a.wordIDs[j], a.wordIDs[j-1] = a.wordIDs[j-1], a.wordIDs[j]
			}
		}
	}
	return true
}
