package ner

import "nutriprofile/internal/textutil"

// tokenize is the package-local tokenizer; identical to textutil.Tokenize
// and aliased so the feature code reads locally.
func tokenize(phrase string) []string { return textutil.Tokenize(phrase) }

// emitFeatures is the tagger's one feature template. It builds each
// feature key of position i of tokens in buf and hands it to emit as
// soon as it is built; the key aliases buf and is valid only during the
// call. The templates mirror a standard CRF NER configuration: word
// identity in a ±2 window, bigram conjunctions, affixes, word shape, and
// gazetteer (lexicon) membership flags. Transition structure is handled
// separately by the decoder's transition weights.
//
// Every consumer walks the same keys in the same order: decoding adds
// each key's weights to the position's emission row (Model.TagScratch),
// the perceptron updates them (Train), and the CRF collects the key
// strings (TrainCRF). Handing keys over one at a time keeps decoding
// allocation-free and its float accumulation order fixed. sc memoizes
// the unit predicate in its slots for tokens, which it must have been
// readied for (BeginPhrase); nil computes it directly. It returns buf
// for reuse.
func emitFeatures(tokens []string, i int, buf []byte, sc *Scratch, emit func(key []byte)) []byte {
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

	buf = append(buf[:0], "w0="...)
	buf = append(buf, w...)
	emit(buf)

	buf = append(buf[:0], "w-1="...)
	buf = append(buf, at(i-1)...)
	emit(buf)

	buf = append(buf[:0], "w+1="...)
	buf = append(buf, at(i+1)...)
	emit(buf)

	buf = append(buf[:0], "w-2="...)
	buf = append(buf, at(i-2)...)
	emit(buf)

	buf = append(buf[:0], "w+2="...)
	buf = append(buf, at(i+2)...)
	emit(buf)

	buf = append(buf[:0], "w-1,0="...)
	buf = append(buf, at(i-1)...)
	buf = append(buf, '|')
	buf = append(buf, w...)
	emit(buf)

	buf = append(buf[:0], "w0,+1="...)
	buf = append(buf, w...)
	buf = append(buf, '|')
	buf = append(buf, at(i+1)...)
	emit(buf)

	if n := len(w); n > 2 {
		buf = append(buf[:0], "suf2="...)
		buf = append(buf, w[n-2:]...)
		emit(buf)
		if n > 3 {
			buf = append(buf[:0], "suf3="...)
			buf = append(buf, w[n-3:]...)
			emit(buf)
		}
		buf = append(buf[:0], "pre2="...)
		buf = append(buf, w[:2]...)
		emit(buf)
		if n > 3 {
			buf = append(buf[:0], "pre3="...)
			buf = append(buf, w[:3]...)
			emit(buf)
		}
	}

	buf = append(buf[:0], "shape="...)
	buf = appendShape(buf, w)
	emit(buf)

	buf = append(buf[:0], "pos="...)
	buf = append(buf, byte('0'+min(i, 6)))
	emit(buf)

	if i == 0 {
		emit(append(buf[:0], "first"...))
	}
	if i == len(tokens)-1 {
		emit(append(buf[:0], "last"...))
	}

	if isQuantityToken(w) {
		emit(append(buf[:0], "lex:qty"...))
	}
	if sc.isUnitAt(tokens, i) {
		emit(append(buf[:0], "lex:unit"...))
	}
	if sizeWords[w] {
		emit(append(buf[:0], "lex:size"...))
	}
	if tempWords[w] {
		emit(append(buf[:0], "lex:temp"...))
	}
	if dfWords[w] {
		emit(append(buf[:0], "lex:df"...))
	}
	if stateWords[w] {
		emit(append(buf[:0], "lex:state"...))
	}
	if fillerWords[w] {
		emit(append(buf[:0], "lex:filler"...))
	}
	if isQuantityToken(at(i - 1)) {
		emit(append(buf[:0], "prev:qty"...))
	}
	if i > 0 && sc.isUnitAt(tokens, i-1) { // "<s>" names no unit
		emit(append(buf[:0], "prev:unit"...))
	}
	if at(i-1) == "," {
		emit(append(buf[:0], "prev:comma"...))
	}
	return buf
}
