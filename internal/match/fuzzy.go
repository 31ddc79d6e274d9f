package match

// Fuzzy fallback: scraped ingredient sections carry misspellings
// ("buttre", "oinon") that defeat exact word-set intersection. When
// enabled, query words absent from the description vocabulary are
// corrected to their closest vocabulary word within Damerau–Levenshtein
// distance 1 before matching. This is an extension beyond the paper
// (whose preprocessing assumes clean tokens); the typo experiment
// quantifies the match-rate it recovers.

import "strings"

// withinDL1 reports whether two words are within Damerau–Levenshtein
// distance 1 (one insertion, deletion, substitution, or adjacent
// transposition).
func withinDL1(a, b string) bool {
	if a == b {
		return true
	}
	la, lb := len(a), len(b)
	switch {
	case la == lb:
		// One substitution or one adjacent transposition.
		diff := -1
		for i := 0; i < la; i++ {
			if a[i] != b[i] {
				if diff >= 0 {
					// Second difference: only a transposition of the
					// adjacent pair saves it.
					if diff == i-1 && a[diff] == b[i] && a[i] == b[diff] {
						return a[i+1:] == b[i+1:]
					}
					return false
				}
				diff = i
			}
		}
		return true
	case la == lb+1:
		return oneDeletion(a, b)
	case lb == la+1:
		return oneDeletion(b, a)
	default:
		return false
	}
}

// oneDeletion reports whether deleting exactly one rune from long yields
// short.
func oneDeletion(long, short string) bool {
	i := 0
	for i < len(short) && long[i] == short[i] {
		i++
	}
	return long[:i]+long[i+1:] == short
}

// correct maps an out-of-vocabulary word to a unique-best vocabulary
// word within distance 1. Returns "" when no candidate (or an ambiguous
// candidate set spanning different words) exists. Short words (< 4
// bytes) are never corrected: at that length distance-1 neighbours are
// mostly different words ("oat"/"eat").
func (m *Matcher) correct(word string) string {
	if len(word) < 4 {
		return ""
	}
	if _, ok := m.vocab.Lookup(word); ok {
		return word
	}
	best := ""
	for _, vocab := range m.vocab.Terms() {
		d := len(vocab) - len(word)
		if d < -1 || d > 1 {
			continue
		}
		if withinDL1(word, vocab) {
			if best != "" && best != vocab {
				return "" // ambiguous
			}
			best = vocab
		}
	}
	return best
}

// CorrectQuery rewrites the query's Name with fuzzy corrections for
// out-of-vocabulary words, leaving in-vocabulary words untouched. It is
// exposed so the pipeline can apply correction once and log what changed.
func (m *Matcher) CorrectQuery(q Query) (Query, bool) {
	tokens := NormalizeTokens(q.Name)
	changed := false
	for i, tok := range tokens {
		if _, ok := m.vocab.Lookup(tok); ok {
			continue
		}
		if fixed := m.correct(tok); fixed != "" {
			tokens[i] = fixed
			changed = true
		}
	}
	if !changed {
		return q, false
	}
	out := q
	out.Name = strings.Join(tokens, " ")
	return out, true
}

// MatchFuzzy matches with the typo-correction fallback: an exact Match
// first, then a corrected retry for queries that found nothing.
func (m *Matcher) MatchFuzzy(q Query) (Result, bool) {
	if r, ok := m.Match(q); ok {
		return r, true
	}
	if fixed, changed := m.CorrectQuery(q); changed {
		return m.Match(fixed)
	}
	return Result{}, false
}
