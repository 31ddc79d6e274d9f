package postag

import "testing"

// TestLexiconPrecedence: the merged lexicon must reproduce the original
// case-chain precedence. "frozen" is in both the adjective and the
// participle inventories; the chain checked adjectives first, so it must
// tag ADJ.
func TestLexiconPrecedence(t *testing.T) {
	cases := []struct {
		tok  string
		want Tag
	}{
		{"frozen", Adj},   // adjective beats participle
		{"ground", Verb},  // participle only
		{"cut", Verb},     // participle only
		{"the", Det},      // determiner
		{"of", Prep},      // preposition
		{"and", Conj},     // conjunction
		{"to", Prep},      // preposition (also a filler downstream)
		{"fresh", Adj},    // adjective
		{"chopped", Verb}, // -ed suffix, not lexicon
		{"finely", Adv},   // -ly suffix
		{"flour", Noun},   // open-class default
	}
	for _, c := range cases {
		if got := Tagging(c.tok); got != c.want {
			t.Errorf("Tagging(%q) = %v, want %v", c.tok, got, c.want)
		}
	}
	// Every word of every source inventory must resolve to the tag the
	// original chain gave it (chain order: det > prep > conj > adj > verb).
	chain := func(w string) Tag {
		switch {
		case determiners[w]:
			return Det
		case prepositions[w]:
			return Prep
		case conjunctions[w]:
			return Conj
		case adjectives[w]:
			return Adj
		case participles[w]:
			return Verb
		}
		return NTags
	}
	for _, inventory := range []map[string]bool{determiners, prepositions, conjunctions, adjectives, participles} {
		for w := range inventory {
			if got, want := lexicon[w], chain(w); got != want {
				t.Errorf("lexicon[%q] = %v, want chain order %v", w, got, want)
			}
		}
	}
}

// TestSuffixRuleBounds pins the strict length bounds the inline checks
// used: "ly"/"ed" need >3/>4 total runes respectively.
func TestSuffixRuleBounds(t *testing.T) {
	cases := []struct {
		tok  string
		want Tag
	}{
		{"ly", Noun}, {"fly", Noun}, {"only", Adv},
		{"ed", Noun}, {"red", Adj}, {"bed", Noun}, {"aged", Noun}, {"diced", Verb},
		{"ing", Noun}, {"king", Noun}, {"icing", Verb},
	}
	for _, c := range cases {
		if got := Tagging(c.tok); got != c.want {
			t.Errorf("Tagging(%q) = %v, want %v", c.tok, got, c.want)
		}
	}
}
