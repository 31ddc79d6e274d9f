package ner

// This file is the executable specification of the NER decoder: a
// string-feature template, word shape, unit predicate and allocating
// Viterbi, written for clarity rather than speed. The production
// template (emitFeatures), unit memo and decoder (TagScratch) are pinned
// to them by the parity tests and FuzzTagScratchSpec.

import (
	"strconv"
	"strings"
	"unicode"

	"nutriprofile/internal/units"
)

// featurize emits the feature strings for position i of tokens. The
// templates mirror a standard CRF NER configuration: word identity in a
// ±2 window, bigram conjunctions, affixes, word shape, and gazetteer
// (lexicon) membership flags. Transition structure is handled separately
// by the decoder's transition weights.
func featurize(tokens []string, i int) []string {
	at := func(j int) string {
		switch {
		case j < 0:
			return "<s>"
		case j >= len(tokens):
			return "</s>"
		default:
			return tokens[j]
		}
	}
	w := tokens[i]
	feats := make([]string, 0, 24)
	add := func(f string) { feats = append(feats, f) }

	add("w0=" + w)
	add("w-1=" + at(i-1))
	add("w+1=" + at(i+1))
	add("w-2=" + at(i-2))
	add("w+2=" + at(i+2))
	add("w-1,0=" + at(i-1) + "|" + w)
	add("w0,+1=" + w + "|" + at(i+1))

	if n := len(w); n > 2 {
		add("suf2=" + w[n-2:])
		if n > 3 {
			add("suf3=" + w[n-3:])
		}
		add("pre2=" + w[:2])
		if n > 3 {
			add("pre3=" + w[:3])
		}
	}

	add("shape=" + wordShape(w))
	add("pos=" + strconv.Itoa(min(i, 6)))
	if i == 0 {
		add("first")
	}
	if i == len(tokens)-1 {
		add("last")
	}

	if isQuantityToken(w) {
		add("lex:qty")
	}
	if isUnitToken(w) {
		add("lex:unit")
	}
	if sizeWords[w] {
		add("lex:size")
	}
	if tempWords[w] {
		add("lex:temp")
	}
	if dfWords[w] {
		add("lex:df")
	}
	if stateWords[w] {
		add("lex:state")
	}
	if fillerWords[w] {
		add("lex:filler")
	}
	if isQuantityToken(at(i - 1)) {
		add("prev:qty")
	}
	if isUnitToken(at(i - 1)) {
		add("prev:unit")
	}
	if at(i-1) == "," {
		add("prev:comma")
	}
	return feats
}

// isUnitToken reports whether the token resolves to a known measurement
// unit that is NOT a size word (sizes get their own tag). NormalizeToken
// skips Normalize's re-tokenization; the inputs here are always single
// tokens (or the "<s>"/"</s>" sentinels, unknown either way).
func isUnitToken(tok string) bool {
	if sizeWords[tok] {
		return false
	}
	name, known := units.NormalizeToken(tok)
	if !known {
		return false
	}
	if k, err := units.KindOf(name); err == nil && k == units.Size {
		return false
	}
	return true
}

// wordShape produces a compact shape signature: "1" for digits, "a" for
// letters, with punctuation preserved; runs collapsed. "2-4" → "1-1",
// "hard-cooked" → "a-a", "Flour" → "a".
func wordShape(tok string) string {
	var b strings.Builder
	var last rune
	for _, r := range tok {
		var c rune
		switch {
		case unicode.IsDigit(r):
			c = '1'
		case unicode.IsLetter(r):
			c = 'a'
		default:
			c = r
		}
		if c != last {
			b.WriteRune(c)
			last = c
		}
	}
	return b.String()
}

// specTag is the reference decoder: featurize strings probed one by one,
// then Viterbi over per-position cell slices.
func (m *Model) specTag(tokens []string) []Label {
	if len(tokens) == 0 {
		return nil
	}
	n := len(tokens)
	// Emission scores per position.
	emit := make([][NLabels]float64, n)
	for i := range tokens {
		for _, f := range featurize(tokens, i) {
			if wv, ok := m.emissions[f]; ok {
				for l := 0; l < int(NLabels); l++ {
					emit[i][l] += wv[l]
				}
			}
		}
	}

	// Viterbi.
	type cell struct {
		score float64
		back  Label
	}
	prev := make([]cell, NLabels)
	cur := make([]cell, NLabels)
	backptr := make([][]Label, n)
	for l := Label(0); l < NLabels; l++ {
		prev[l] = cell{score: m.transitions[NLabels][l] + emit[0][l]}
	}
	for i := 1; i < n; i++ {
		backptr[i] = make([]Label, NLabels)
		for l := Label(0); l < NLabels; l++ {
			best, bestFrom := prev[0].score+m.transitions[0][l], Label(0)
			for from := Label(1); from < NLabels; from++ {
				if s := prev[from].score + m.transitions[from][l]; s > best {
					best, bestFrom = s, from
				}
			}
			cur[l] = cell{score: best + emit[i][l]}
			backptr[i][l] = bestFrom
		}
		prev, cur = cur, prev
	}

	bestLabel, bestScore := Label(0), prev[0].score
	for l := Label(1); l < NLabels; l++ {
		if prev[l].score > bestScore {
			bestLabel, bestScore = l, prev[l].score
		}
	}
	labels := make([]Label, n)
	labels[n-1] = bestLabel
	for i := n - 1; i > 0; i-- {
		labels[i-1] = backptr[i][labels[i]]
	}
	return labels
}

// specRow is the emission row the spec decoder sums for position i.
func specRow(m *Model, tokens []string, i int) [NLabels]float64 {
	var row [NLabels]float64
	for _, f := range featurize(tokens, i) {
		if wv, ok := m.emissions[f]; ok {
			for l := 0; l < int(NLabels); l++ {
				row[l] += wv[l]
			}
		}
	}
	return row
}
