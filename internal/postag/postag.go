// Package postag is a coarse part-of-speech tagger for ingredient phrases.
//
// The paper (§II-A) uses POS tagging only to build frequency vectors that
// represent each ingredient phrase ("A vector representing an ingredient
// phrase would be defined by the frequency of the tag in the ingredient
// phrase"); the vectors are then clustered to select a diverse NER
// train/test corpus. A coarse lexicon-plus-suffix tagger preserves exactly
// that signal, substituting for NLTK's tagger without external models.
package postag

import (
	"strings"
	"unicode"
)

// Tag is a coarse part-of-speech label.
type Tag uint8

// The coarse tag inventory. NTags is the vector dimensionality used by the
// clustering step.
const (
	Noun Tag = iota
	Verb
	Adj
	Adv
	Num
	Det
	Prep
	Conj
	Punct
	Other
	NTags
)

var tagNames = [NTags]string{
	"NOUN", "VERB", "ADJ", "ADV", "NUM", "DET", "PREP", "CONJ", "PUNCT", "OTHER",
}

// String returns the conventional upper-case tag name.
func (t Tag) String() string {
	if t < NTags {
		return tagNames[t]
	}
	return "INVALID"
}

var determiners = map[string]bool{
	"a": true, "an": true, "the": true, "each": true, "some": true,
	"any": true, "all": true, "this": true, "that": true, "these": true,
	"those": true,
}

var prepositions = map[string]bool{
	"of": true, "in": true, "on": true, "at": true, "with": true,
	"without": true, "for": true, "from": true, "to": true, "into": true,
	"per": true, "about": true, "over": true, "under": true, "by": true,
}

var conjunctions = map[string]bool{
	"and": true, "or": true, "but": true, "nor": true, "plus": true,
}

// adjectives covers the descriptive words that dominate ingredient phrases:
// sizes, temperatures, dryness, colours and quality descriptors. These are
// exactly the words that become SIZE/TEMP/DF/STATE entities downstream, so
// tagging them ADJ gives the clustering step its discriminative signal.
var adjectives = map[string]bool{
	"small": true, "medium": true, "large": true, "extra-large": true,
	"jumbo": true, "big": true, "little": true, "thin": true, "thick": true,
	"fresh": true, "dried": true, "dry": true, "frozen": true, "cold": true,
	"hot": true, "warm": true, "lukewarm": true, "chilled": true,
	"lean": true, "fat": true, "low-fat": true, "nonfat": true,
	"fat-free": true, "skim": true, "whole": true, "half": true,
	"boneless": true, "skinless": true, "seedless": true, "unsalted": true,
	"salted": true, "sweet": true, "sour": true, "bitter": true,
	"ripe": true, "raw": true, "cooked": true, "uncooked": true,
	"fine": true, "coarse": true, "soft": true, "firm": true, "hard": true,
	"light": true, "dark": true, "golden": true, "red": true, "green": true,
	"yellow": true, "white": true, "black": true, "brown": true,
	"all-purpose": true, "self-rising": true, "instant": true,
	"plain": true, "pure": true, "heavy": true, "mild": true, "spicy": true,
	"hard-cooked": true, "hard-boiled": true, "soft-boiled": true,
	"reduced-fat": true, "low-sodium": true, "sodium-free": true,
	"sugar-free": true, "gluten-free": true, "extra-virgin": true,
	"stale": true, "day-old": true, "new": true, "young": true, "baby": true,
}

// participles covers cooking-state verb forms that do not end in -ed/-ing.
var participles = map[string]bool{
	"ground": true, "beaten": true, "frozen": true, "cut": true,
	"split": true, "slit": true, "shucked": true, "torn": true,
	"broken": true, "drawn": true, "melted": true,
}

// lexicon merges the closed-class word lists into one map so Tagging does
// a single probe instead of five. Insertion order mirrors the precedence
// of the original case chain (determiner > preposition > conjunction >
// adjective > participle): first writer wins, so a word listed in two
// classes ("frozen" is both adjective and participle) keeps the tag the
// chain would have produced.
var lexicon = make(map[string]Tag, 160)

func addLexicon(words map[string]bool, t Tag) {
	for w := range words {
		if _, ok := lexicon[w]; !ok {
			lexicon[w] = t
		}
	}
}

func init() {
	addLexicon(determiners, Det)
	addLexicon(prepositions, Prep)
	addLexicon(conjunctions, Conj)
	addLexicon(adjectives, Adj)
	addLexicon(participles, Verb)
}

// suffixRules is the morphological fallback for open-class words, applied
// in order after the lexicon misses. minLen is the strict lower bound on
// token length the original inline checks used (len(tok) > n).
var suffixRules = [...]struct {
	suffix string
	minLen int
	tag    Tag
}{
	{"ly", 3, Adv},
	{"ed", 4, Verb},
	{"ing", 4, Verb},
}

// Tagging returns the coarse POS tag for one (lower-cased) token.
func Tagging(tok string) Tag {
	switch {
	case tok == "":
		return Other
	case isPunct(tok):
		return Punct
	case isNumeric(tok):
		return Num
	}
	if t, ok := lexicon[tok]; ok {
		return t
	}
	for _, r := range suffixRules {
		if len(tok) > r.minLen && strings.HasSuffix(tok, r.suffix) {
			return r.tag
		}
	}
	if !startsWithLetter(tok) {
		return Other
	}
	return Noun
}

// TagPhrase tags every token of a pre-tokenized phrase.
func TagPhrase(tokens []string) []Tag {
	out := make([]Tag, 0, len(tokens))
	for _, t := range tokens {
		out = append(out, Tagging(t))
	}
	return out
}

// FrequencyVector returns the per-tag frequency vector of a tagged phrase,
// the phrase representation clustered in §II-A. The vector is normalized
// by phrase length so phrases of different lengths are comparable.
func FrequencyVector(tags []Tag) []float64 {
	v := make([]float64, NTags)
	if len(tags) == 0 {
		return v
	}
	for _, t := range tags {
		if t < NTags {
			v[t]++
		}
	}
	inv := 1.0 / float64(len(tags))
	for i := range v {
		v[i] *= inv
	}
	return v
}

func isPunct(tok string) bool {
	if len(tok) != 1 {
		return false
	}
	r := rune(tok[0])
	return !unicode.IsLetter(r) && !unicode.IsDigit(r)
}

func isNumeric(tok string) bool {
	hasDigit := false
	for _, r := range tok {
		switch {
		case unicode.IsDigit(r):
			hasDigit = true
		case r == '.' || r == '/' || r == '-':
			// fraction, decimal or range punctuation inside a number
		default:
			return false
		}
	}
	return hasDigit
}

func startsWithLetter(tok string) bool {
	for _, r := range tok {
		return unicode.IsLetter(r)
	}
	return false
}
