package ner

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// tableI lists the twelve ingredient phrases of the paper's Table I with
// their expected extractions.
var tableI = []struct {
	phrase string
	want   Extraction
}{
	{"1/2 lb lean ground beef",
		Extraction{Name: "beef", State: "lean ground", Quantity: "1/2", Unit: "lb"}},
	{"1 small onion , finely chopped",
		Extraction{Name: "onion", State: "chopped", Quantity: "1", Size: "small"}},
	{"1 hard-cooked egg , finely chopped",
		Extraction{Name: "egg", State: "hard-cooked chopped", Quantity: "1"}},
	{"1 tablespoon fresh dill weed",
		Extraction{Name: "dill weed", Quantity: "1", Unit: "tablespoon", DryFresh: "fresh"}},
	{"1/2 teaspoon salt", Extraction{Name: "salt", Quantity: "1/2", Unit: "teaspoon"}},
	{"1/8 teaspoon black pepper",
		Extraction{Name: "black pepper", Quantity: "1/8", Unit: "teaspoon"}},
	{"3/4 cup butter , softened",
		Extraction{Name: "butter", State: "softened", Quantity: "3/4", Unit: "cup"}},
	{"2 cups all-purpose flour",
		Extraction{Name: "all-purpose flour", Quantity: "2", Unit: "cups"}},
	{"1 teaspoon salt", Extraction{Name: "salt", Quantity: "1", Unit: "teaspoon"}},
	{"1/2 cup low-fat sour cream",
		Extraction{Name: "cream", State: "low-fat sour", Quantity: "1/2", Unit: "cup"}},
	{"1 egg yolk", Extraction{Name: "egg yolk", Quantity: "1"}},
	{"1 tablespoon cold water",
		Extraction{Name: "water", Quantity: "1", Unit: "tablespoon", Temp: "cold"}},
}

func TestRuleTaggerTableI(t *testing.T) {
	var rt RuleTagger
	for _, c := range tableI {
		got := Extract(rt, c.phrase)
		if got != c.want {
			t.Errorf("Extract(%q):\n got %+v\nwant %+v", c.phrase, got, c.want)
		}
	}
}

func TestRuleTaggerEdgeCases(t *testing.T) {
	var rt RuleTagger
	cases := []struct {
		phrase string
		want   Extraction
	}{
		{"", Extraction{}},
		{"salt", Extraction{Name: "salt"}},
		{"2-4 cloves garlic , minced",
			Extraction{Name: "garlic", State: "minced", Quantity: "2-4", Unit: "cloves"}},
		{"1 1/2 cups milk", Extraction{Name: "milk", Quantity: "1 1/2", Unit: "cups"}},
	}
	for _, c := range cases {
		if got := Extract(rt, c.phrase); got != c.want {
			t.Errorf("Extract(%q):\n got %+v\nwant %+v", c.phrase, got, c.want)
		}
	}
}

// goldCorpus builds a silver training corpus with the rule tagger over
// phrase templates, then perturbs nothing — the perceptron must at least
// learn to reproduce its teacher on held-out phrases built from disjoint
// vocabulary combinations.
func goldCorpus(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"beef", "onion", "egg", "salt", "butter", "flour",
		"milk", "sugar", "garlic", "water", "cream", "pepper", "rice",
		"cheese", "tomato", "basil", "chicken", "carrot", "celery", "honey"}
	quantities := []string{"1", "2", "1/2", "1/4", "3/4", "2-4", "1 1/2", "3"}
	unitWords := []string{"cup", "cups", "tablespoon", "teaspoon", "lb", "oz", "cloves", "can"}
	sizes := []string{"small", "medium", "large"}
	states := []string{"chopped", "minced", "ground", "softened", "diced", "melted"}
	dfs := []string{"fresh", "dried"}
	temps := []string{"cold", "hot", "warm"}

	var rt RuleTagger
	out := make([]Example, 0, n)
	for len(out) < n {
		var b strings.Builder
		b.WriteString(quantities[rng.Intn(len(quantities))])
		switch rng.Intn(4) {
		case 0:
			b.WriteString(" " + unitWords[rng.Intn(len(unitWords))])
		case 1:
			b.WriteString(" " + sizes[rng.Intn(len(sizes))])
		}
		if rng.Intn(3) == 0 {
			b.WriteString(" " + dfs[rng.Intn(len(dfs))])
		}
		if rng.Intn(4) == 0 {
			b.WriteString(" " + temps[rng.Intn(len(temps))])
		}
		b.WriteString(" " + names[rng.Intn(len(names))])
		if rng.Intn(2) == 0 {
			b.WriteString(" , " + states[rng.Intn(len(states))])
		}
		toks := tokenize(b.String())
		out = append(out, Example{Tokens: toks, Labels: rt.Tag(toks)})
	}
	return out
}

func TestTrainLearnsCorpus(t *testing.T) {
	train := goldCorpus(600, 1)
	test := goldCorpus(200, 2)
	model, err := Train(train, TrainConfig{Epochs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for _, ex := range test {
		pred := model.Tag(ex.Tokens)
		for i := range ex.Labels {
			total++
			if pred[i] == ex.Labels[i] {
				correct++
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.97 {
		t.Errorf("token accuracy %.3f on held-out silver corpus, want ≥0.97", acc)
	}
	if model.FeatureCount() == 0 {
		t.Error("trained model has no features")
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); err == nil {
		t.Error("Train(nil) succeeded")
	}
	bad := []Example{{Tokens: []string{"a", "b"}, Labels: []Label{Name}}}
	if _, err := Train(bad, TrainConfig{}); err == nil {
		t.Error("Train with arity mismatch succeeded")
	}
	empty := []Example{{Tokens: nil, Labels: nil}}
	if _, err := Train(empty, TrainConfig{}); err == nil {
		t.Error("Train with empty example succeeded")
	}
}

func TestTrainDeterministic(t *testing.T) {
	corpus := goldCorpus(150, 5)
	m1, err1 := Train(corpus, TrainConfig{Epochs: 3, Seed: 9})
	m2, err2 := Train(corpus, TrainConfig{Epochs: 3, Seed: 9})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	probe := tokenize("2 cups fresh milk , chopped")
	p1, p2 := m1.Tag(probe), m2.Tag(probe)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("training not deterministic for fixed seed")
		}
	}
}

func TestModelEmptyInput(t *testing.T) {
	m := NewModel()
	if got := m.Tag(nil); got != nil {
		t.Errorf("Tag(nil) = %v", got)
	}
	toks := tokenize("")
	if labels := m.Tag(toks); len(toks) != 0 || len(labels) != 0 {
		t.Error("tagging an empty phrase should produce nothing")
	}
}

func TestLabelString(t *testing.T) {
	cases := map[Label]string{
		Out: "O", Name: "NAME", State: "STATE", Unit: "UNIT",
		Quantity: "QUANTITY", Temp: "TEMP", DF: "DF", Size: "SIZE",
	}
	for l, want := range cases {
		if l.String() != want {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), want)
		}
		back, err := ParseLabel(want)
		if err != nil || back != l {
			t.Errorf("ParseLabel(%q) = %v, %v", want, back, err)
		}
	}
	if _, err := ParseLabel("BOGUS"); err == nil {
		t.Error("ParseLabel(BOGUS) succeeded")
	}
}

func TestAssembleJoinsInOrder(t *testing.T) {
	toks := []string{"lean", "ground", "beef"}
	labels := []Label{State, State, Name}
	e := Assemble(toks, labels)
	if e.State != "lean ground" || e.Name != "beef" {
		t.Errorf("Assemble = %+v", e)
	}
}

func TestWordShape(t *testing.T) {
	cases := map[string]string{
		"2-4":         "1-1",
		"hard-cooked": "a-a",
		"1/2":         "1/1",
		"flour":       "a",
		"2.5":         "1.1",
		"":            "",
	}
	for in, want := range cases {
		if got := wordShape(in); got != want {
			t.Errorf("wordShape(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: the rule tagger is total — label count always matches token
// count and all labels are valid.
func TestRuleTaggerTotal(t *testing.T) {
	var rt RuleTagger
	f := func(phrase string) bool {
		toks := tokenize(phrase)
		labels := rt.Tag(toks)
		if len(toks) != len(labels) {
			return false
		}
		for _, l := range labels {
			if l >= NLabels {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a trained model is total over arbitrary phrases.
func TestModelTotal(t *testing.T) {
	model, err := Train(goldCorpus(100, 4), TrainConfig{Epochs: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := func(phrase string) bool {
		toks := tokenize(phrase)
		return len(toks) == len(model.Tag(toks))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRuleTagger(b *testing.B) {
	var rt RuleTagger
	toks := tokenize("1/2 cup low-fat sour cream , chilled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Tag(toks)
	}
}

func BenchmarkModelTag(b *testing.B) {
	model, err := Train(goldCorpus(300, 6), TrainConfig{Epochs: 3, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	toks := tokenize("1/2 cup low-fat sour cream , chilled")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Tag(toks)
	}
}
