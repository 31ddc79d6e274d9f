package match

// spec is the exhaustive ranking engine: the executable specification
// the candidate-pruned engine (prune.go) is differential-tested
// against. It marks candidates with a gather pass over the anchor
// posting lists, walks every scored term's posting list in full, then
// scores every candidate — no early termination, no adaptive lookups,
// so every equality in it is trivially exact.
//
// It owns its accumulators as parallel stamp/inter/pri arrays, which
// the production arena does not carry, and reuses them and its
// query-preparation arena across queries, so a warm spec query
// allocates nothing. Not safe for concurrent use.
type spec struct {
	m     *Matcher
	a     *arena // query preparation and selection scratch
	epoch uint32
	stamp []uint32 // stamp[d] == epoch ⇔ inter[d]/pri[d] are live
	inter []int32  // |A ∩ doc| accumulator, by document index
	pri   []int32  // Σ matched-term priorities (§II-B(h)), by document
}

// newSpec builds the exhaustive engine over m's index and options.
func newSpec(m *Matcher) *spec {
	n := m.db.Len()
	return &spec{
		m:     m,
		a:     &arena{},
		stamp: make([]uint32, n),
		inter: make([]int32, n),
		pri:   make([]int32, n),
	}
}

// Rank is Matcher.Rank on the exhaustive engine.
func (s *spec) Rank(q Query, k int) []Result {
	cands := s.rankCandsExhaustive(q, k)
	if len(cands) == 0 {
		return nil
	}
	out := make([]Result, len(cands))
	for i, c := range cands {
		s.m.fillResult(s.a, c, &out[i])
	}
	return out
}

// RankInto is Matcher.RankInto on the exhaustive engine.
func (s *spec) RankInto(q Query, k int, dst []Result) []Result {
	dst = dst[:0]
	for _, c := range s.rankCandsExhaustive(q, k) {
		var r Result
		s.m.fillResult(s.a, c, &r)
		dst = append(dst, r)
	}
	return dst
}

// rankCandsExhaustive is the straight-line engine behind Rank and
// RankInto: the same contract as Matcher.rankCands.
func (s *spec) rankCandsExhaustive(q Query, k int) []cand {
	m, a := s.m, s.a
	if !a.prepare(m, q) {
		return nil
	}

	s.epoch++
	if s.epoch == 0 { // wraparound: invalidate stale stamps for real
		clear(s.stamp)
		s.epoch = 1
	}
	epoch := s.epoch

	// Gather-and-mark pass over the anchor terms' posting lists: under
	// NameAnchoring, STATE/TEMP/DF words may strengthen a match but
	// never create one.
	touched := a.touched[:0]
	for _, t := range a.anchorIDs {
		for _, d := range m.postDocs[m.postOff[t]:m.postOff[t+1]] {
			if s.stamp[d] != epoch {
				s.stamp[d] = epoch
				s.inter[d] = 0
				s.pri[d] = 0
				touched = append(touched, d)
			}
		}
	}
	a.touched = touched
	if len(touched) == 0 {
		return nil
	}

	// Scoring pass: every scored term contributes its posting list to
	// the marked documents' accumulators.
	for _, t := range a.ids {
		off, end := m.postOff[t], m.postOff[t+1]
		docs := m.postDocs[off:end]
		pris := m.postPri[off:end]
		for j, d := range docs {
			if s.stamp[d] == epoch {
				s.inter[d]++
				s.pri[d] += pris[j]
			}
		}
	}

	// Score, filter and select. For bounded k the arena keeps a heap of
	// the current k best with the WORST at the root, so each remaining
	// candidate costs one comparison against the bar (plus a sift when
	// it clears it). k ≤ 0 collects everything.
	sel := a.cands[:0]
	vanilla := m.opts.Metric == VanillaJaccard
	scoredLen := float64(a.scoredLen)
	for _, d := range a.touched {
		inter := s.inter[d]
		var score float64
		if vanilla {
			score = float64(inter) / (scoredLen + float64(m.docLen(d)) - float64(inter))
		} else {
			score = float64(inter) / scoredLen
		}
		if score < m.opts.MinScore {
			continue
		}
		c := cand{score: score, pri: s.pri[d], doc: d, raw: a.rawEligible && m.hasRaw[d]}
		if k <= 0 || len(sel) < k {
			sel = append(sel, c)
			if k > 0 && len(sel) == k {
				heapifyWorst(sel, m)
			}
			continue
		}
		if m.better(c, sel[0]) {
			sel[0] = c
			siftWorst(sel, 0, len(sel), m)
		}
	}
	a.cands = sel
	sortCands(sel, m)
	return sel
}
