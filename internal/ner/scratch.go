package ner

import (
	"strings"

	"nutriprofile/internal/textutil"
	"nutriprofile/internal/units"
)

// Scratch is the ner stage's per-goroutine arena: every buffer the
// tagging and assembly hot path needs, owned by exactly one goroutine at
// a time (see pipeline.Scratch, which embeds one per worker). A warm
// Scratch makes the whole tag→assemble path allocation-free.
//
// The zero value is ready to use; buffers grow on demand and are reused
// across phrases. None of the methods are safe for concurrent use.
type Scratch struct {
	labels []Label            // decoded label sequence, one live phrase
	emit   [][NLabels]float64 // Viterbi emission scores, row per token
	back   []Label            // Viterbi backpointers, n×NLabels flat
	buf    []byte             // feature-key / field-join byte scratch

	// interned maps field strings to stable copies so Extraction fields
	// never alias the byte scratch (or, via single-token joins, the
	// caller's phrase). unitMemo memoizes each token's unit resolution for
	// both the tagger's unit predicate and Unit. Both are bounded:
	// vocabulary-sized in practice, cleared wholesale if adversarial
	// input overflows them.
	interned map[string]string
	unitMemo map[string]unitFacts

	// firstWord[l] is the index of the first alphabetic token labeled l
	// in the phrase assembled last, or -1. Recorded during
	// AssembleScratch so unit resolution does not re-tokenize fields.
	firstWord [NLabels]int
}

// maxScratchEntries bounds each memo map; real corpora stay far below it.
const maxScratchEntries = 4096

// unitFacts is one token's unit resolution: units.NormalizeToken's name
// and known flag, and whether the tagger reads the token as a unit.
type unitFacts struct {
	name  string
	known bool
	unit  bool
}

// resolveUnit computes a token's unitFacts with one NormalizeToken call.
func resolveUnit(tok string) unitFacts {
	name, known := units.NormalizeToken(tok)
	return unitFacts{name: name, known: known, unit: tagsAsUnit(tok, name, known)}
}

// intern returns a stable string equal to b, reusing a prior copy when
// the same bytes were seen before.
func (sc *Scratch) intern(b []byte) string {
	if s, ok := sc.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if sc.interned == nil {
		sc.interned = make(map[string]string)
	} else if len(sc.interned) >= maxScratchEntries {
		clear(sc.interned)
	}
	sc.interned[s] = s
	return s
}

// unitOf is the memoized resolveUnit. Memoized facts own their bytes:
// tok is usually a substring of the caller's phrase, which may view a
// buffer the next request overwrites. A nil receiver computes without
// memoizing, so shared code paths need no branching.
func (sc *Scratch) unitOf(tok string) unitFacts {
	if sc == nil {
		return resolveUnit(tok)
	}
	if f, ok := sc.unitMemo[tok]; ok {
		return f
	}
	f := resolveUnit(tok)
	if sc.unitMemo == nil {
		sc.unitMemo = make(map[string]unitFacts)
	} else if len(sc.unitMemo) >= maxScratchEntries {
		clear(sc.unitMemo)
	}
	key := strings.Clone(tok)
	// NormalizeToken echoes the cleaned spelling, so name often views tok
	// ("cup") or a prefix of it ("cups" → "cup").
	if f.name == tok {
		f.name = key
	} else {
		f.name = strings.Clone(f.name)
	}
	sc.unitMemo[key] = f
	return f
}

// Unit is a memoized units.NormalizeToken: the unit a Tokenize-emitted
// token names, and whether it is a known unit. Through a non-nil sc the
// name never aliases tok.
func (sc *Scratch) Unit(tok string) (string, bool) {
	f := sc.unitOf(tok)
	return f.name, f.known
}

// isUnit reports whether the tagger reads tok as a unit (tagsAsUnit),
// memoized beside Unit's answer.
func (sc *Scratch) isUnit(tok string) bool { return sc.unitOf(tok).unit }

// emitRows returns n zeroed emission rows. Rows must be cleared (unlike
// the backpointer rows) because features accumulate into them with +=.
func (sc *Scratch) emitRows(n int) [][NLabels]float64 {
	if cap(sc.emit) < n {
		sc.emit = make([][NLabels]float64, n)
	}
	sc.emit = sc.emit[:n]
	for i := range sc.emit {
		sc.emit[i] = [NLabels]float64{}
	}
	return sc.emit
}

// backRows returns the flat n×NLabels backpointer array, uncleared:
// Viterbi writes every cell it later reads (rows 1..n-1 fully, row 0
// never), so stale values from the previous phrase are unreachable.
func (sc *Scratch) backRows(n int) []Label {
	need := n * int(NLabels)
	if cap(sc.back) < need {
		sc.back = make([]Label, need)
	}
	sc.back = sc.back[:need]
	return sc.back
}

// labelSlice returns the n-length output slice for decoded labels.
func (sc *Scratch) labelSlice(n int) []Label {
	if cap(sc.labels) < n {
		sc.labels = make([]Label, n)
	}
	sc.labels = sc.labels[:n]
	return sc.labels
}

// FirstWordIndex returns the token index of the first alphabetic token
// the last AssembleScratch call assigned to label l, or -1 if none.
// Equivalent to textutil.FirstWord over the joined field, without the
// re-tokenization.
func (sc *Scratch) FirstWordIndex(l Label) int {
	if l >= NLabels {
		return -1
	}
	return sc.firstWord[l]
}

// ExtractScratch is Extract over pre-tokenized input, decoding and
// assembling through sc.
func ExtractScratch(t Tagger, tokens []string, sc *Scratch) Extraction {
	return AssembleScratch(tokens, t.TagScratch(tokens, sc), sc)
}

// AssembleScratch is Assemble building its field strings in sc's byte
// scratch and interning the results, so a warm Scratch assembles without
// allocating. Field values are byte-identical to Assemble's.
func AssembleScratch(tokens []string, labels []Label, sc *Scratch) Extraction {
	var present [NLabels]bool
	for i := range sc.firstWord {
		sc.firstWord[i] = -1
	}
	for i := range tokens {
		if l := labels[i]; l < NLabels {
			present[l] = true
		}
	}
	var ex Extraction
	fields := [NLabels]*string{
		nil, &ex.Name, &ex.State, &ex.Unit, &ex.Quantity,
		&ex.Temp, &ex.DryFresh, &ex.Size,
	}
	for l := Name; l < NLabels; l++ {
		if !present[l] {
			continue
		}
		buf := sc.buf[:0]
		for i, tok := range tokens {
			if labels[i] != l {
				continue
			}
			if len(buf) > 0 {
				buf = append(buf, ' ')
			}
			buf = append(buf, tok...)
			if sc.firstWord[l] < 0 && textutil.IsWordToken(tok) {
				sc.firstWord[l] = i
			}
		}
		sc.buf = buf
		*fields[l] = sc.intern(buf)
	}
	return ex
}
