package ner

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nutriprofile/internal/textutil"
	"nutriprofile/internal/units"
)

// scratchTestPhrases exercises every feature template and rule branch:
// quantities in all spellings, units before/after the name, sizes,
// temps, dry/fresh, states, fillers, commas, parentheses, alternative
// ingredients, unicode fraction glyphs, and degenerate inputs.
var scratchTestPhrases = []string{
	"2 cups all-purpose flour",
	"1 small onion , finely chopped",
	"1/2 lb lean ground beef",
	"1 teaspoon butter",
	"3/4 cup butter or 3/4 cup margarine , softened",
	"2 eggs , beaten",
	"1 tablespoon cold water",
	"2 cloves garlic , minced",
	"1 cup dried cranberries",
	"salt and pepper to taste",
	"1 (8 ounce) package cream cheese , softened",
	"2-4 large carrots , peeled and sliced",
	"½ cup sugar",
	"1¼ cups milk",
	"1.5 kg chicken breast , skinless",
	"pinch of salt",
	"fresh parsley for garnish",
	"3 medium tomatoes",
	"1 pound fresh mushrooms , sliced",
	"Boiling Water",
	"2 Tbsp. olive oil",
	"a",
	",",
	"",
	"1",
	"cup",
	"x",
}

// TestAppendShapeParity pins appendShape to wordShape over the corpus
// tokens plus multi-byte and punctuation-heavy shapes.
func TestAppendShapeParity(t *testing.T) {
	toks := []string{"", "Flour", "2-4", "hard-cooked", "½", "1¼", "a1a1", "..", "éclair", "ÅB", "日本", "x,y"}
	for _, p := range scratchTestPhrases {
		toks = append(toks, tokenize(p)...)
	}
	var buf []byte
	for _, tok := range toks {
		buf = appendShape(buf[:0], tok)
		if got, want := string(buf), wordShape(tok); got != want {
			t.Errorf("appendShape(%q) = %q, want %q", tok, got, want)
		}
	}
}

// probeModel builds a model whose emission table holds every feature the
// test phrases produce, with distinct deterministic weights per feature —
// so any divergence between featurize and emitFeatures shifts a score.
func probeModel(t testing.TB) *Model {
	t.Helper()
	m := NewModel()
	n := 0
	for _, p := range scratchTestPhrases {
		toks := tokenize(p)
		for i := range toks {
			for _, f := range featurize(toks, i) {
				if _, ok := m.emissions[f]; ok {
					continue
				}
				wv := new([NLabels]float64)
				for l := 0; l < int(NLabels); l++ {
					wv[l] = float64((n*7+l*13)%101) - 50
				}
				m.emissions[f] = wv
				n++
			}
		}
	}
	// Distinct transitions so Viterbi paths are sensitive to them too.
	for from := 0; from <= int(NLabels); from++ {
		for to := 0; to < int(NLabels); to++ {
			m.transitions[from][to] = float64((from*17+to*5)%23) - 11
		}
	}
	if n == 0 {
		t.Fatal("probe model has no features")
	}
	return m
}

// TestEmitFeaturesParity pins the one feature template to the spec's
// featurize: emitFeatures must hand over exactly featurize's keys, in
// featurize's order (the order fixes the float accumulation, so equal
// keys in equal order make equal emission rows), with and without a
// memoizing scratch.
func TestEmitFeaturesParity(t *testing.T) {
	for _, sc := range []*Scratch{nil, {}} {
		var buf []byte
		for _, p := range scratchTestPhrases {
			toks := tokenize(p)
			if sc != nil {
				sc.BeginPhrase(len(toks))
			}
			for i := range toks {
				var got []string
				buf = emitFeatures(toks, i, buf, sc, func(key []byte) {
					got = append(got, string(key))
				})
				if want := featurize(toks, i); !slices.Equal(got, want) {
					t.Errorf("phrase %q pos %d: emitFeatures keys %q, want %q", p, i, got, want)
				}
			}
		}
	}
}

// checkModelSpec decodes toks with TagScratch on sc and checks it
// against the spec: the labels equal specTag's and every emission row
// TagScratch summed is bit-equal to specRow's.
func checkModelSpec(t testing.TB, m *Model, toks []string, sc *Scratch) {
	t.Helper()
	want := m.specTag(toks)
	got := m.TagScratch(toks, sc)
	if !slices.Equal(got, want) {
		t.Fatalf("tokens %q: TagScratch %v, want spec %v", toks, got, want)
	}
	for i := range toks {
		row, spec := sc.emit[i], specRow(m, toks, i)
		for l := range row {
			if math.Float64bits(row[l]) != math.Float64bits(spec[l]) {
				t.Fatalf("tokens %q pos %d: emission row %v, want spec %v", toks, i, row, spec)
			}
		}
	}
}

// checkUnitMemo checks sc's memoized unit answers for every position of
// toks, the phrase sc was last readied for, against
// units.NormalizeToken and the spec's isUnitToken.
func checkUnitMemo(t testing.TB, sc *Scratch, toks []string) {
	t.Helper()
	for i, tok := range toks {
		gotName, gotKnown := sc.UnitAt(toks, i)
		if wantName, wantKnown := units.NormalizeToken(tok); gotName != wantName || gotKnown != wantKnown {
			t.Fatalf("UnitAt(%q) = (%q, %v), want (%q, %v)", tok, gotName, gotKnown, wantName, wantKnown)
		}
		if got, want := sc.isUnitAt(toks, i), isUnitToken(tok); got != want {
			t.Fatalf("isUnitAt(%q) = %v, want %v", tok, got, want)
		}
	}
}

// TestModelTagScratchMatchesTag pins the decoder to the spec on a model
// with dense, adversarially distinct weights, through one reused scratch
// and through Tag's fresh one.
func TestModelTagScratchMatchesTag(t *testing.T) {
	m := probeModel(t)
	sc := &Scratch{}
	for _, p := range scratchTestPhrases {
		toks := tokenize(p)
		checkModelSpec(t, m, toks, sc)
		if got, want := m.Tag(toks), m.specTag(toks); !slices.Equal(got, want) {
			t.Errorf("phrase %q: Tag %v, want spec %v", p, got, want)
		}
	}
}

// TestTrainedModelTagScratchMatchesTag repeats the differential with a
// model trained on silver labels — realistic (sparse, averaged) weights.
func TestTrainedModelTagScratchMatchesTag(t *testing.T) {
	var rt RuleTagger
	var examples []Example
	for _, p := range scratchTestPhrases {
		toks := tokenize(p)
		if len(toks) == 0 {
			continue
		}
		examples = append(examples, Example{Tokens: toks, Labels: rt.Tag(toks)})
	}
	m, err := Train(examples, TrainConfig{Epochs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	for _, p := range scratchTestPhrases {
		checkModelSpec(t, m, tokenize(p), sc)
	}
}

// FuzzTagScratchSpec drives arbitrary phrases through the one decoder,
// for the rule tagger and the probe model, on one long-lived scratch
// (with whatever memo state earlier inputs left behind) and on a fresh
// one. Each must agree with the spec: the labels with the spec decode
// (RuleTagger.Tag, which memoizes nothing, and specTag), every emission
// row bit for bit with the featurize sum, and the unit memo with
// units.NormalizeToken and isUnitToken.
func FuzzTagScratchSpec(f *testing.F) {
	for _, p := range scratchTestPhrases {
		f.Add(p)
	}
	f.Add("<s> </s>")
	f.Add("\x00\xff weird bytes")
	m := probeModel(f)
	var rt RuleTagger
	warm := &Scratch{}
	f.Fuzz(func(t *testing.T, phrase string) {
		toks := tokenize(phrase)
		wantRule := rt.Tag(toks)
		for _, sc := range []*Scratch{warm, new(Scratch)} {
			if got := rt.TagScratch(toks, sc); !slices.Equal(got, wantRule) {
				t.Fatalf("tokens %q: rule TagScratch %v, want %v", toks, got, wantRule)
			}
			checkModelSpec(t, m, toks, sc)
			checkUnitMemo(t, sc, toks)
		}
	})
}

// TestRuleTaggerTagScratchMatchesTag pins the appending rule path (with
// the memoized unit predicate) to the plain one.
func TestRuleTaggerTagScratchMatchesTag(t *testing.T) {
	var rt RuleTagger
	sc := &Scratch{}
	for _, p := range scratchTestPhrases {
		toks := tokenize(p)
		want := rt.Tag(toks)
		got := rt.TagScratch(toks, sc)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("phrase %q: TagScratch %v, want %v", p, got, want)
		}
	}
}

// TestExtractScratchMatchesExtract pins scratch assembly (byte-scratch
// joins, interning, first-word indices) to Extract/Assemble, for both
// the rule tagger and the probe model.
func TestExtractScratchMatchesExtract(t *testing.T) {
	taggers := []struct {
		name string
		t    Tagger
	}{
		{"rule", RuleTagger{}},
		{"model", probeModel(t)},
	}
	for _, tc := range taggers {
		t.Run(tc.name, func(t *testing.T) {
			sc := &Scratch{}
			for _, p := range scratchTestPhrases {
				want := Extract(tc.t, p)
				toks := tokenize(p)
				got := ExtractScratch(tc.t, toks, sc)
				if got != want {
					t.Errorf("phrase %q: ExtractScratch %+v, want %+v", p, got, want)
				}
				// FirstWordIndex must agree with textutil.FirstWord over
				// the joined field — the equivalence unit resolution
				// relies on.
				fields := [NLabels]string{
					"", got.Name, got.State, got.Unit, got.Quantity,
					got.Temp, got.DryFresh, got.Size,
				}
				for l := Name; l < NLabels; l++ {
					idx := sc.FirstWordIndex(l)
					first := textutil.FirstWord(fields[l])
					if first == "" {
						if idx != -1 {
							t.Errorf("phrase %q label %v: FirstWordIndex %d, want -1 (field %q)", p, l, idx, fields[l])
						}
						continue
					}
					if idx < 0 || idx >= len(toks) || toks[idx] != first {
						t.Errorf("phrase %q label %v: FirstWordIndex %d (token %q), want token %q",
							p, l, idx, tokenAt(toks, idx), first)
					}
				}
			}
		})
	}
}

func tokenAt(toks []string, i int) string {
	if i < 0 || i >= len(toks) {
		return fmt.Sprintf("<out of range %d>", i)
	}
	return toks[i]
}

// TestExtractScratchFieldsStable: Extraction fields must survive the
// scratch being reused for later phrases (they are interned copies, not
// aliases into the byte scratch).
func TestExtractScratchFieldsStable(t *testing.T) {
	var rt RuleTagger
	sc := &Scratch{}
	first := ExtractScratch(rt, tokenize("2 cups all-purpose flour"), sc)
	want := first
	for _, p := range scratchTestPhrases {
		ExtractScratch(rt, tokenize(p), sc)
	}
	if first != want {
		t.Fatalf("extraction mutated by later scratch reuse: %+v, want %+v", first, want)
	}
	if first.Name != "all-purpose flour" {
		t.Fatalf("Name = %q, want %q", first.Name, "all-purpose flour")
	}
}

// TestScratchIsUnitMemo: the memoized unit answers must agree with
// units.NormalizeToken and isUnitToken across repeated and overflowing
// use.
func TestScratchIsUnitMemo(t *testing.T) {
	sc := &Scratch{}
	toks := []string{"cup", "cups", "flour", "<s>", "</s>", "small", "lb", "g", "", "Tbsp", "slices", "2"}
	for round := 0; round < 3; round++ {
		sc.BeginPhrase(len(toks))
		checkUnitMemo(t, sc, toks)
	}
	// Overflow the bound with spellings each seen in two phrases, so
	// each is stored; correctness must survive the wholesale clear.
	for i := 0; i < maxScratchEntries+10; i++ {
		one := []string{strings.Repeat("x", 1+i%7) + fmt.Sprint(i)}
		for range 2 {
			sc.BeginPhrase(1)
			sc.isUnitAt(one, 0)
		}
	}
	if n := len(sc.unitMemo); n > maxScratchEntries || n == 0 {
		t.Fatalf("unit memo holds %d entries, want 1..%d", n, maxScratchEntries)
	}
	sc.BeginPhrase(len(toks))
	checkUnitMemo(t, sc, toks)
}
