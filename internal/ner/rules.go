package ner

// RuleTagger is the deterministic baseline tagger. It encodes the
// positional grammar of ingredient phrases directly: a leading numeric
// token is the QUANTITY, a following measurement word is the UNIT,
// closed-class lexicons give SIZE/TEMP/DF/STATE, punctuation and filler
// map to O, and remaining content words are the NAME.
//
// It serves two roles: the ablation baseline the learned tagger is
// compared against, and the bootstrap annotator used to produce silver
// labels when no gold corpus is available.
type RuleTagger struct{}

// Tag labels a tokenized phrase. It never fails; unknown tokens default
// to NAME, which is the majority class in ingredient phrases.
func (RuleTagger) Tag(tokens []string) []Label {
	return appendRuleTags(make([]Label, 0, len(tokens)), tokens, nil)
}

// TagScratch is Tag decoding into sc, with the unit predicate memoized
// per scratch. It readies sc for tokens (BeginPhrase). The returned
// slice aliases sc.
func (RuleTagger) TagScratch(tokens []string, sc *Scratch) []Label {
	sc.BeginPhrase(len(tokens))
	sc.labels = appendRuleTags(sc.labels[:0], tokens, sc)
	return sc.labels
}

// appendRuleTags is the positional grammar, appending one label per
// token to dst. sc (nilable) only memoizes the unit predicate — the
// labels emitted are independent of it.
func appendRuleTags(dst []Label, tokens []string, sc *Scratch) []Label {
	seenName := false
	afterComma := false
	skipAlternative := false
	for i, tok := range tokens {
		// "3/4 cup butter or 3/4 cup margarine": once the NAME has been
		// seen, an "or" introduces an alternative ingredient, which the
		// paper's Table I drops entirely.
		if skipAlternative && tok != "," {
			dst = append(dst, Out)
			continue
		}
		if tok == "or" && seenName {
			dst = append(dst, Out)
			skipAlternative = true
			continue
		}
		switch {
		case tok == "," || tok == "(" || tok == ")":
			dst = append(dst, Out)
			if tok == "," {
				afterComma = true
				skipAlternative = false
			}
		case isQuantityToken(tok):
			dst = append(dst, Quantity)
		case sizeWords[tok]:
			dst = append(dst, Size)
		case tempWords[tok]:
			dst = append(dst, Temp)
		case dfWords[tok]:
			dst = append(dst, DF)
		case stateWords[tok]:
			dst = append(dst, State)
		case fillerWords[tok]:
			dst = append(dst, Out)
		case sc.isUnitAt(tokens, i) && !seenName:
			// Unit words before the name are true units ("2 cups flour");
			// after the name they are usually part of it or noise
			// ("chicken breast" — breast is a count unit but here NAME).
			dst = append(dst, Unit)
		default:
			// Content word. After a comma boundary, trailing content
			// words are nearly always processing states in this corpus
			// ("onion , finely chopped"), but only when a name exists.
			if afterComma && seenName {
				dst = append(dst, State)
			} else {
				dst = append(dst, Name)
				seenName = true
			}
		}
	}
	return dst
}
