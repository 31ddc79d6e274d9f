package ner

import (
	"math/bits"
	"strings"

	"nutriprofile/internal/admit"
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
	// caller's phrase). unitMemo memoizes each token spelling's unit
	// facts for the tagger's unit predicate and UnitAt. Each keeps a
	// spelling only on its second sighting: a miss marks the memo's door
	// (once per phrase), and the spelling is stored only once its door
	// has seen it in two phrases within one aging period, so a one-off
	// spelling is computed and not retained. maxScratchEntries still
	// bounds both maps, cleared wholesale if adversarial input
	// overflows them.
	interned  map[string]string
	fieldDoor admit.Door
	unitMemo  map[string]unitFacts
	unitDoor  admit.Door

	// units[i] is token i's unit facts in the current phrase, resolved
	// on the position's first probe; BeginPhrase clears them (if any
	// was resolved). Later probes of the position (the rule tagger, the
	// template's lex:unit and the next position's prev:unit, UnitAt)
	// read the slot.
	units    []unitSlot
	resolved bool
	// missed indexes this phrase's positions whose spelling missed the
	// unit memo, by spelling hash: an open-addressed table of position+1
	// (0 is empty), sized to at least twice the phrase's token count,
	// holding nMissed positions. A later position with the same spelling
	// copies the first one's facts, so a spelling repeated within one
	// phrase is one sighting. Past len, and all of it while nMissed is 0,
	// the table is zero.
	missed  []int32
	nMissed int

	// firstWord[l] is the index of the first alphabetic token labeled l
	// in the phrase assembled last, or -1. Recorded during
	// AssembleScratch so unit resolution does not re-tokenize fields.
	firstWord [NLabels]int
}

// maxScratchEntries bounds each memo map; real corpora stay far below it.
const maxScratchEntries = 4096

// doorEntries sizes each memo's door as for a 512-entry memo: an aging
// period of 2,560 misses and 4,096 slots, 8 KB, allocated on the memo's
// first miss. A spelling must recur within a period to be stored; the
// corpus' recurring vocabulary does, a salt never does. Doors sized for
// maxScratchEntries (64 KB) saved less on salted traffic and cost peak
// RSS on warm traffic (DESIGN.md §10).
const doorEntries = 512

// unitFacts is one token's unit resolution: units.NormalizeToken's name
// and known flag, and whether the tagger reads the token as a unit.
type unitFacts struct {
	name  string
	known bool
	unit  bool
}

// unitSlot is one position's unitFacts, once resolved (ok).
type unitSlot struct {
	unitFacts
	ok bool
}

// resolveUnit computes a token's unitFacts with one NormalizeToken call.
func resolveUnit(tok string) unitFacts {
	name, known := units.NormalizeToken(tok)
	return unitFacts{name: name, known: known, unit: tagsAsUnit(tok, name, known)}
}

// admitted marks h in d, sizing d on its first touch, and reports
// whether h's spelling is on its second sighting this aging period.
func admitted(d *admit.Door, h uint64) bool {
	if d.Period() == 0 {
		d.Init(doorEntries)
	}
	return d.Mark(h)
}

// intern returns a stable string equal to b: the stored copy when b's
// spelling is resident, the field of this phrase already assembled from
// the same bytes (earlier), or a new string, which is stored only on the
// spelling's second sighting. A one-off field thus costs the string it
// has to be anyway, and a repeat within one phrase is no sighting.
func (sc *Scratch) intern(b []byte, earlier []*string) string {
	if s, ok := sc.interned[string(b)]; ok {
		return s
	}
	for _, f := range earlier {
		if *f == string(b) {
			return *f
		}
	}
	s := string(b)
	if !admitted(&sc.fieldDoor, admit.Hash(b)) {
		return s
	}
	if sc.interned == nil {
		sc.interned = make(map[string]string)
	} else if len(sc.interned) >= maxScratchEntries {
		clear(sc.interned)
	}
	sc.interned[s] = s
	return s
}

// BeginPhrase readies sc's per-position unit slots for a phrase of n
// tokens, forgetting the previous phrase's. Every tagger's TagScratch
// calls it, and so does pipeline.Scratch.Tokenize, so UnitAt reads the
// current phrase's slots whether or not the phrase was tagged first.
// BeginPhrase(0) drops every view of the last phrase the slots hold.
func (sc *Scratch) BeginPhrase(n int) {
	if sc.resolved {
		clear(sc.units) // past len the slots are already zero
		sc.resolved = false
	}
	if cap(sc.units) < n {
		sc.units = make([]unitSlot, n)
	}
	sc.units = sc.units[:n]
	if sc.nMissed > 0 {
		clear(sc.missed)
		sc.nMissed = 0
	}
}

// unitAt returns tokens[i]'s unit facts, resolving them on the
// position's first probe of the phrase. tokens is the phrase sc was
// last readied for (BeginPhrase). A nil receiver computes without
// memoizing, so shared code paths need no branching.
func (sc *Scratch) unitAt(tokens []string, i int) unitFacts {
	if sc == nil {
		return resolveUnit(tokens[i])
	}
	s := &sc.units[i]
	if !s.ok {
		s.unitFacts, s.ok = sc.resolveAt(tokens, i), true
		sc.resolved = true
	}
	return s.unitFacts
}

// resolveAt resolves tokens[i] on its position's first probe: from the
// memo if the spelling is resident, from the earlier position that
// missed with the same spelling this phrase, or by computing it, which
// marks the unit door. A spelling on its second sighting is stored, and
// stored facts own their bytes: tok usually views the caller's phrase,
// which may be a buffer the next request overwrites. Facts not stored
// serve this phrase only: a known unit's name is cloned, because it
// leaves the phrase as the ingredient's unit, and an unknown unit's
// name, which nothing reads after the phrase, may view tok.
func (sc *Scratch) resolveAt(tokens []string, i int) unitFacts {
	tok := tokens[i]
	if f, ok := sc.unitMemo[tok]; ok {
		return f
	}
	h := admit.Hash(tok)
	if j := sc.firstMiss(tokens, i, h); j >= 0 {
		return sc.units[j].unitFacts
	}
	f := resolveUnit(tok)
	if !admitted(&sc.unitDoor, h) {
		if f.known {
			f.name = strings.Clone(f.name)
		}
		return f
	}
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

// firstMiss returns the position of this phrase that first missed the
// unit memo with tokens[i]'s spelling (h is its hash), or records i as
// that position and returns -1.
func (sc *Scratch) firstMiss(tokens []string, i int, h uint64) int {
	if sc.nMissed == 0 {
		n := max(16, 1<<bits.Len(uint(2*len(tokens)-1)))
		if cap(sc.missed) < n {
			sc.missed = make([]int32, n)
		}
		sc.missed = sc.missed[:n]
	}
	mask := uint64(len(sc.missed) - 1)
	for k := (h ^ h>>32) & mask; ; k = (k + 1) & mask {
		p := sc.missed[k]
		if p == 0 {
			sc.missed[k] = int32(i + 1)
			sc.nMissed++
			return -1
		}
		if tokens[p-1] == tokens[i] {
			return int(p - 1)
		}
	}
}

// UnitAt is a memoized units.NormalizeToken of tokens[i]: the unit the
// token names, and whether it is a known unit. tokens is the phrase sc
// was last readied for (BeginPhrase, or a TagScratch call). A known
// unit's name never aliases the phrase; an unknown one's is valid only
// until the phrase's bytes are reused.
func (sc *Scratch) UnitAt(tokens []string, i int) (string, bool) {
	f := sc.unitAt(tokens, i)
	return f.name, f.known
}

// isUnitAt reports whether the tagger reads tokens[i] as a unit
// (tagsAsUnit), memoized beside UnitAt's answer.
func (sc *Scratch) isUnitAt(tokens []string, i int) bool { return sc.unitAt(tokens, i).unit }

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
		*fields[l] = sc.intern(buf, fields[Name:l])
	}
	return ex
}
