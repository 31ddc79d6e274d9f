package ner

import (
	"runtime"
	"slices"
	"testing"

	"nutriprofile/internal/admit"
)

// saltWord spells one-off token i in letters only, as nutribench's
// bulk-cold salts are spelled: the tokenizer keeps it one word, so it
// lands in the NER name and the rule tagger probes it as a unit.
func saltWord(i int) string {
	const letters = "bcdfghjklmnpqrtv"
	b := []byte("zq")
	for shift := 20; shift >= 0; shift -= 4 {
		b = append(b, letters[i>>shift&15])
	}
	return string(b)
}

// allocsOf counts the heap allocations of one call of f, on one P as
// testing.AllocsPerRun measures, but without its warm-up call.
func allocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// checkResident fails unless the unit memo's and the field interner's
// residency of unit spelling tok and field spelling field is want.
func checkResident(t *testing.T, sc *Scratch, tok, field string, want bool) {
	t.Helper()
	if _, ok := sc.unitMemo[tok]; tok != "" && ok != want {
		t.Fatalf("unit memo holds %q: %v, want %v", tok, ok, want)
	}
	if _, ok := sc.interned[field]; field != "" && ok != want {
		t.Fatalf("field interner holds %q: %v, want %v", field, ok, want)
	}
}

// TestScratchAdmitsOnSecondSighting streams 2 × maxScratchEntries
// one-off tokens and fields through one warm scratch and checks the
// admission rule of both memos: a spelling is stored only once its
// door has seen it in two phrases of one aging period, so no one-off is
// resident, a spelling seen in two phrases is, and its third phrase
// allocates nothing. A repeat within one phrase — the same token at two
// positions, the same field under two labels, or one position probed
// twice by the model template — is one sighting. Every answer must
// still equal units.NormalizeToken and Assemble.
func TestScratchAdmitsOnSecondSighting(t *testing.T) {
	var rt RuleTagger
	sc := &Scratch{}
	extract := func(phrase string) {
		t.Helper()
		toks := tokenize(phrase)
		got := ExtractScratch(rt, toks, sc)
		if want := Assemble(toks, rt.Tag(toks)); got != want {
			t.Fatalf("phrase %q: ExtractScratch %+v, want %+v", phrase, got, want)
		}
		checkUnitMemo(t, sc, toks)
	}
	for range 2 {
		for _, p := range scratchTestPhrases {
			extract(p)
		}
	}
	units, fields := len(sc.unitMemo), len(sc.interned)
	if units == 0 || fields == 0 {
		t.Fatalf("warm scratch holds %d units and %d fields; its vocabulary was seen twice", units, fields)
	}

	const oneOffs = 2 * maxScratchEntries
	for i := 0; i < oneOffs; i++ {
		extract("2 cups flour " + saltWord(i))
	}
	for i := 0; i < oneOffs; i++ {
		checkResident(t, sc, saltWord(i), "flour "+saltWord(i), false)
	}
	if len(sc.unitMemo) != units || len(sc.interned) != fields {
		t.Fatalf("one-offs changed the memos from %d units and %d fields to %d and %d",
			units, fields, len(sc.unitMemo), len(sc.interned))
	}

	// Two phrases store a spelling; its third phrase allocates nothing.
	extract("2 cups flour zqtwice")
	checkResident(t, sc, "zqtwice", "flour zqtwice", false)
	extract("2 cups flour zqtwice")
	checkResident(t, sc, "zqtwice", "flour zqtwice", true)
	toks := tokenize("2 cups flour zqtwice")
	if n := allocsOf(func() {
		ExtractScratch(rt, toks, sc)
		for i := range toks {
			sc.UnitAt(toks, i)
		}
	}); n != 0 {
		t.Fatalf("the third phrase of a stored spelling allocates %d times, want 0", n)
	}

	// A token at two positions and a field under two labels (NAME, then
	// STATE after the comma) are one sighting each.
	extract("2 cups flour zqpair zqpair")
	extract("zqfield , zqfield")
	checkResident(t, sc, "zqpair", "", false)
	checkResident(t, sc, "zqfield", "zqfield", false)
	extract("zqpair")
	extract("zqfield , zqfield")
	checkResident(t, sc, "zqpair", "", true)
	checkResident(t, sc, "zqfield", "zqfield", true)

	// The model template probes each position twice: lex:unit, then the
	// next position's prev:unit.
	m := probeModel(t)
	checkModelSpec(t, m, tokenize("2 cups zqmodel flour"), sc)
	checkResident(t, sc, "zqmodel", "", false)
	checkModelSpec(t, m, tokenize("zqmodel"), sc)
	checkResident(t, sc, "zqmodel", "", true)

	// Both sightings must fall in one aging period: a period of other
	// misses in between clears the first.
	extract("2 cups flour zqaged")
	for i := 0; i < sc.unitDoor.Period(); i++ {
		extract("2 cups flour " + saltWord(oneOffs+i))
	}
	extract("2 cups flour zqaged")
	checkResident(t, sc, "zqaged", "flour zqaged", false)
	extract("2 cups flour zqaged")
	checkResident(t, sc, "zqaged", "flour zqaged", true)
}

// admissionModel is the reference for one scratch memo under
// FuzzScratchAdmission: the spellings resident, and the spellings
// sighted once in this aging period. A sighting is a spelling's first
// memo miss in a phrase. The door it marks is a reference admit.Door of
// the memo's size fed the same hashes, so the model also follows the
// rare fingerprint the door confuses with an earlier spelling's; the
// exact sets check that the door never misses a true second sighting.
type admissionModel struct {
	name     string
	resident map[string]bool
	once     map[string]bool
	door     admit.Door
	marks    int
}

func newAdmissionModel(name string) *admissionModel {
	am := &admissionModel{name: name, resident: map[string]bool{}, once: map[string]bool{}}
	am.door.Init(doorEntries)
	return am
}

// sight records a sighting of s and stores s on its second.
func (am *admissionModel) sight(t *testing.T, s string) {
	t.Helper()
	if am.marks == am.door.Period() {
		clear(am.once)
		am.marks = 0
	}
	am.marks++
	again := am.once[s]
	am.once[s] = true
	if !am.door.Mark(admit.Hash(s)) {
		if again {
			t.Fatalf("%s: %q sighted in two phrases of one aging period, but its door reads a first sighting", am.name, s)
		}
		return
	}
	if len(am.resident) >= maxScratchEntries {
		clear(am.resident)
	}
	am.resident[s] = true
}

// checkResidency compares the memo's residency with the model's.
func checkResidency[V any](t *testing.T, am *admissionModel, memo map[string]V) {
	t.Helper()
	for s := range memo {
		if !am.resident[s] {
			t.Fatalf("%s holds %q, which the model has not stored", am.name, s)
		}
	}
	if len(memo) != len(am.resident) {
		t.Fatalf("%s holds %d spellings, the model %d", am.name, len(memo), len(am.resident))
	}
}

// admissionVocab spells FuzzScratchAdmission's tokens: numbers, units,
// names, lexicon words, punctuation and, from index 24 on, salt stems
// that a two-bit suffix makes 32 salts.
var admissionVocab = [32]string{
	"2", "1/2", "cup", "cups", "tbsp", "g", "slices", "pinch",
	"flour", "sugar", "salt", "butter", "onion", "small", "fresh", "cold",
	"chopped", "of", "and", "or", ",", "(", ")", "to",
	"zqb", "zqc", "zqd", "zqf", "qx", "qy", "xx", "ww",
}

// FuzzScratchAdmission drives arbitrary phrase streams through one
// scratch per input, long-lived across the stream, and checks its
// answers and both memos' residency against a model of the admission
// rule: a spelling is stored only on its second sighting in an aging
// period, where a sighting is its first memo miss in a phrase. Each
// byte appends admissionVocab[b&31] (salt stems suffixed by b>>5&3);
// a byte with the top bit set ends the phrase, which bit 5 tags with
// the probe model (set) or the rule tagger. Every phrase's labels must
// equal the spec's, its Extraction Assemble's, and every position's
// unit answers units.NormalizeToken's.
func FuzzScratchAdmission(f *testing.F) {
	f.Add([]byte{0x00, 0x03, 0x88})
	f.Add([]byte{0x00, 0x03, 0x08, 0x98, 0x00, 0x03, 0x08, 0xb8, 0x18, 0x98})
	f.Add([]byte{0x0b, 0x14, 0x8b, 0x0b, 0x14, 0xab, 0x39, 0x79, 0xb9, 0x39})
	f.Add([]byte{0x13, 0x08, 0x0a, 0x93, 0x08, 0x8a, 0x0d, 0x0e, 0x08, 0x14, 0x10, 0xa8})
	m := probeModel(f)
	var rt RuleTagger
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := new(Scratch)
		units, fields := newAdmissionModel("unit memo"), newAdmissionModel("field interner")
		var toks []string
		for k, b := range data {
			tok := admissionVocab[b&31]
			if b&31 >= 24 {
				tok += string("bcdf"[b>>5&3])
			}
			toks = append(toks, tok)
			if b&0x80 == 0 && k < len(data)-1 {
				continue
			}
			var labels []Label
			if b&0x20 != 0 {
				checkModelSpec(t, m, toks, sc)
				labels = sc.labels
			} else {
				labels = rt.TagScratch(toks, sc)
				if want := rt.Tag(toks); !slices.Equal(labels, want) {
					t.Fatalf("tokens %q: rule TagScratch %v, want %v", toks, labels, want)
				}
			}
			ex := AssembleScratch(toks, labels, sc)
			if want := Assemble(toks, labels); ex != want {
				t.Fatalf("tokens %q: AssembleScratch %+v, want %+v", toks, ex, want)
			}
			checkUnitMemo(t, sc, toks)

			sighted := map[string]bool{}
			for _, tok := range toks {
				if !units.resident[tok] && !sighted[tok] {
					sighted[tok] = true
					units.sight(t, tok)
				}
			}
			var earlier []string
			for _, field := range []string{ex.Name, ex.State, ex.Unit, ex.Quantity, ex.Temp, ex.DryFresh, ex.Size} {
				if field != "" && !fields.resident[field] && !slices.Contains(earlier, field) {
					fields.sight(t, field)
				}
				earlier = append(earlier, field)
			}
			checkResidency(t, units, sc.unitMemo)
			checkResidency(t, fields, sc.interned)
			toks = toks[:0]
		}
	})
}
