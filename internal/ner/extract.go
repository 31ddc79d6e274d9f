package ner

import "strings"

// Extraction is the structured form of one ingredient phrase — one row of
// the paper's Table I.
type Extraction struct {
	Name     string // "beef", "black pepper"
	State    string // "ground lean", "chopped"
	Quantity string // "1/2", "2-4"
	Unit     string // "lb", "tablespoon"
	Temp     string // "cold"
	DryFresh string // "fresh"
	Size     string // "small"
}

// Tagger is anything that labels tokenized phrases: the learned Model,
// the RuleTagger baseline, or a test double. TagScratch decodes into a
// caller-owned Scratch, so a warm one decodes without allocating; the
// returned slice aliases sc and is valid until its next use.
type Tagger interface {
	TagScratch(tokens []string, sc *Scratch) []Label
}

// Extract runs a tagger over a raw ingredient phrase and assembles the
// labeled tokens into an Extraction. Tokens with the same label are
// joined in phrase order with single spaces (Table I shows multi-word
// values like "ground lean" and "black pepper").
func Extract(t Tagger, phrase string) Extraction {
	tokens := tokenize(phrase)
	labels := t.TagScratch(tokens, new(Scratch))
	return Assemble(tokens, labels)
}

// Assemble groups labeled tokens into an Extraction.
func Assemble(tokens []string, labels []Label) Extraction {
	var parts [NLabels][]string
	for i, tok := range tokens {
		l := labels[i]
		if l == Out || l >= NLabels {
			continue
		}
		parts[l] = append(parts[l], tok)
	}
	join := func(l Label) string { return strings.Join(parts[l], " ") }
	return Extraction{
		Name:     join(Name),
		State:    join(State),
		Quantity: join(Quantity),
		Unit:     join(Unit),
		Temp:     join(Temp),
		DryFresh: join(DF),
		Size:     join(Size),
	}
}

// IsEmpty reports whether nothing at all was extracted.
func (e Extraction) IsEmpty() bool {
	return e == Extraction{}
}
