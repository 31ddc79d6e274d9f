package pipeline_test

import (
	"reflect"
	"strings"
	"testing"

	"nutriprofile/internal/ner"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/textutil"
	"nutriprofile/internal/units"
)

// edgePhrases stresses the paths a generated corpus rarely hits:
// unicode fractions, casing, punctuation noise, empties.
var edgePhrases = []string{
	"", " ", ",", "1", "cup", "½ cup sugar", "1¼ cups milk",
	"2 Tbsp. olive oil", "Boiling Water", "1 (8 ounce) package cream cheese , softened",
	"salt and pepper to taste", "3/4 cup butter or 3/4 cup margarine , softened",
	"100% whole wheat flour", `pat (1" sq, 1/3" high)`,
}

// corpusPhrases returns generated recipe phrases plus the edge cases.
func corpusPhrases(t testing.TB, recipes int) []string {
	t.Helper()
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: recipes, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return append(corpus.Phrases(), edgePhrases...)
}

// trainedModel fits a small perceptron on silver labels so the scratch
// path is exercised with a real (sparse, averaged) weight table.
func trainedModel(t testing.TB, phrases []string) *ner.Model {
	t.Helper()
	var rt ner.RuleTagger
	var examples []ner.Example
	for _, p := range phrases {
		if len(examples) >= 200 {
			break
		}
		toks := textutil.Tokenize(p)
		if len(toks) == 0 {
			continue
		}
		examples = append(examples, ner.Example{Tokens: toks, Labels: rt.Tag(toks)})
	}
	m, err := ner.Train(examples, ner.TrainConfig{Epochs: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkPhrase runs one phrase through sc and compares every stage
// against the allocating reference implementations.
func checkPhrase(t *testing.T, sc *pipeline.Scratch, tagger ner.Tagger, p string) {
	t.Helper()
	wantToks := textutil.Tokenize(p)
	gotToks := sc.Tokenize(p)
	if !(len(wantToks) == 0 && len(gotToks) == 0) && !reflect.DeepEqual(gotToks, wantToks) {
		t.Fatalf("phrase %q: tokens %q, want %q", p, gotToks, wantToks)
	}
	for i, tok := range wantToks {
		wantName, wantKnown := units.Normalize(tok)
		gotName, gotKnown := sc.UnitFor(i)
		if gotName != wantName || gotKnown != wantKnown {
			t.Fatalf("phrase %q token %q: UnitFor = (%q, %v), want (%q, %v)",
				p, tok, gotName, gotKnown, wantName, wantKnown)
		}
	}
	if got, want := string(sc.PhraseKey()), strings.Join(wantToks, " "); got != want {
		t.Fatalf("phrase %q: PhraseKey %q, want %q", p, got, want)
	}
	wantEx := ner.Extract(tagger, p)
	if gotEx := sc.Extract(tagger); gotEx != wantEx {
		t.Fatalf("phrase %q: extraction %+v, want %+v", p, gotEx, wantEx)
	}
}

// TestScratchDifferential runs a generated corpus through one warm,
// continuously reused Scratch and pins every stage — tokens, unit
// lookups, cache keys, extraction — to the reference path.
func TestScratchDifferential(t *testing.T) {
	phrases := corpusPhrases(t, 150)
	taggers := []struct {
		name string
		t    ner.Tagger
	}{
		{"rule", ner.RuleTagger{}},
		{"model", trainedModel(t, phrases)},
	}
	for _, tc := range taggers {
		t.Run(tc.name, func(t *testing.T) {
			sc := new(pipeline.Scratch)
			for _, p := range phrases {
				checkPhrase(t, sc, tc.t, p)
			}
			// Second pass: every memo map is now warm; results must not drift.
			for _, p := range phrases {
				checkPhrase(t, sc, tc.t, p)
			}
		})
	}
}

// TestJoinKey pins JoinKey to the strings.Join reference, including the
// empty-fields shapes the match cache produces.
func TestJoinKey(t *testing.T) {
	sc := &pipeline.Scratch{}
	cases := [][]string{
		{},
		{""},
		{"flour"},
		{"flour", "", "", ""},
		{"sour cream", "chopped", "cold", "fresh"},
	}
	for _, fields := range cases {
		if got, want := string(sc.JoinKey(fields...)), strings.Join(fields, "\x1f"); got != want {
			t.Errorf("JoinKey(%q) = %q, want %q", fields, got, want)
		}
	}
	// PhraseKey and JoinKey use distinct buffers: both must stay valid at
	// once, as the estimator's miss path requires.
	sc.Tokenize("2 cups flour")
	pk := sc.PhraseKey()
	sc.JoinKey("flour", "", "", "")
	if string(pk) != "2 cups flour" {
		t.Fatalf("PhraseKey clobbered by JoinKey: %q", pk)
	}
}

// TestColdPathZeroAllocs is the front end's allocation gate: a warm
// Scratch must process a phrase through tokenize → NER → unit lookup →
// cache keys with zero heap allocations, for both the
// rule tagger and a trained model — phrases with vulgar-fraction glyphs
// included, since "½" is expanded into the arena too.
func TestColdPathZeroAllocs(t *testing.T) {
	phrases := []string{
		"2 cups all-purpose flour",
		"1½ cups sugar",
		"¼ teaspoon salt",
		"1 small onion , finely chopped",
		"1/2 lb lean ground beef",
		"1 teaspoon butter",
		"2 Tbsp. olive oil",
		"1 (8 ounce) package cream cheese , softened",
		"salt and pepper to taste",
	}
	taggers := []struct {
		name string
		t    ner.Tagger
	}{
		{"rule", ner.RuleTagger{}},
		{"model", trainedModel(t, corpusPhrases(t, 50))},
	}
	for _, tc := range taggers {
		t.Run(tc.name, func(t *testing.T) {
			sc := new(pipeline.Scratch)
			run := func() {
				for _, p := range phrases {
					sc.Tokenize(p)
					ex := sc.Extract(tc.t)
					if ex.IsEmpty() {
						t.Fatal("empty extraction")
					}
					for i := range sc.Tokens() {
						sc.UnitFor(i)
					}
					sc.PhraseKey()
					sc.JoinKey(ex.Name, ex.State, ex.Temp, ex.DryFresh)
				}
			}
			run() // warm every buffer and memo map
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Fatalf("warm pipeline allocates: %v allocs/run, want 0", allocs)
			}
		})
	}
}
