package match

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"nutriprofile/internal/usda"
)

func defaultMatcher(t testing.TB) *Matcher {
	t.Helper()
	return NewDefault(usda.Seed())
}

func mustMatch(t *testing.T, m *Matcher, q Query) Result {
	t.Helper()
	r, ok := m.Match(q)
	if !ok {
		t.Fatalf("no match for %+v", q)
	}
	return r
}

func TestNormalizeTokens(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		// §II-B(f): the paper's worked example — both sides normalize to
		// the same set.
		{"unsalted butter", []string{"not", "salt", "butter"}},
		{"Butter, without salt", []string{"butter", "not", "salt"}},
		{"Egg whites", []string{"egg", "white"}},
		{"Whole eggs", []string{"whole", "egg"}},
		{"Apples, raw, with skin", []string{"apple", "raw", "skin"}},
		{"low-fat sour cream", []string{"low-fat", "sour", "cream"}},
		{"fat-free milk", []string{"not", "fat", "milk"}},
		{"boneless chicken", []string{"not", "bone", "chicken"}},
		{"2 cups all-purpose flour", []string{"cup", "all-purpose", "flour"}},
	}
	for _, c := range cases {
		if got := NormalizeTokens(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("NormalizeTokens(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPerfectNegationMatch(t *testing.T) {
	// §II-B(f): "unsalted butter" must match "Butter, without salt" with
	// a perfect score.
	m := defaultMatcher(t)
	r := mustMatch(t, m, Query{Name: "unsalted butter", State: "x-no-raw"})
	if r.Desc != "Butter, without salt" {
		t.Errorf("unsalted butter → %q, want Butter, without salt", r.Desc)
	}
	r2 := mustMatch(t, m, Query{Name: "unsalted butter"})
	if r2.Desc != "Butter, without salt" {
		t.Errorf("unsalted butter (no state) → %q", r2.Desc)
	}
}

func TestEggVariants(t *testing.T) {
	// §II-B(c): "Egg whites" → "Egg, white, raw, fresh";
	// "Whole eggs" → "Egg, whole, raw, fresh".
	m := defaultMatcher(t)
	if r := mustMatch(t, m, Query{Name: "egg whites"}); r.Desc != "Egg, white, raw, fresh" {
		t.Errorf("egg whites → %q", r.Desc)
	}
	if r := mustMatch(t, m, Query{Name: "whole eggs"}); r.Desc != "Egg, whole, raw, fresh" {
		t.Errorf("whole eggs → %q", r.Desc)
	}
	if r := mustMatch(t, m, Query{Name: "egg yolk"}); r.Desc != "Egg, yolk, raw, fresh" {
		t.Errorf("egg yolk → %q", r.Desc)
	}
	// §II-B(i): bare "eggs" ties across whole/white/yolk and resolves to
	// the first SR row, the whole egg.
	if r := mustMatch(t, m, Query{Name: "eggs"}); r.Desc != "Egg, whole, raw, fresh" {
		t.Errorf("eggs → %q, want Egg, whole, raw, fresh", r.Desc)
	}
}

func TestAppleRawProvisionAndPriority(t *testing.T) {
	// §II-B(g)+(h)+(i): "apple" → "Apples, raw, with skin", beating both
	// "Babyfood, apples, dices, toddler" (priority) and "Apples, raw,
	// without skin" (first match).
	m := defaultMatcher(t)
	r := mustMatch(t, m, Query{Name: "apple"})
	if r.Desc != "Apples, raw, with skin" {
		t.Errorf("apple → %q, want Apples, raw, with skin", r.Desc)
	}
}

func TestRawProvisionDisabledChangesNothingWithState(t *testing.T) {
	// With a STATE present the provision must not add "raw".
	m := defaultMatcher(t)
	a := m.getArena()
	defer m.putArena(a)
	a.prepare(m, Query{Name: "apple"})
	eligibleNoState := a.rawEligible
	if slices.Contains(a.words, "raw") {
		t.Error("raw must never enter the scored set")
	}
	a.prepare(m, Query{Name: "apple", State: "chopped"})
	eligibleWithState := a.rawEligible
	if !eligibleNoState {
		t.Error("raw provision not eligible for stateless query")
	}
	if eligibleWithState {
		t.Error("raw provision wrongly eligible with STATE present")
	}
	// The bonus surfaces on results for raw descriptions only.
	rs := m.Rank(Query{Name: "apple"}, 0)
	sawBonus := false
	for _, r := range rs {
		if strings.Contains(r.Desc, "raw") != r.RawBonus {
			t.Errorf("RawBonus=%v for %q", r.RawBonus, r.Desc)
		}
		if r.RawBonus {
			sawBonus = true
		}
	}
	if !sawBonus {
		t.Error("no raw-bonus results for bare apple")
	}
}

func TestTableIIIModifiedInferences(t *testing.T) {
	// The Table III rows our database can reproduce under the modified
	// index (queries as NAME[+STATE] pairs as the NER emits them).
	m := defaultMatcher(t)
	cases := []struct {
		q    Query
		want string
	}{
		{Query{Name: "red lentils"}, "Lentils, pink or red, raw"},
		{Query{Name: "coriander", State: "ground"}, "Coriander (cilantro) leaves, raw"},
		{Query{Name: "tomato paste"}, "Tomato products, canned, paste, without salt added"},
		{Query{Name: "fava beans"}, "Broadbeans (fava beans), mature seeds, raw"},
		{Query{Name: "cayenne pepper", State: "ground"}, "Spices, pepper, red or cayenne"},
		{Query{Name: "sesame seeds"}, "Seeds, sesame seeds, whole, dried"},
	}
	for _, c := range cases {
		r := mustMatch(t, m, c.q)
		if r.Desc != c.want {
			t.Errorf("%+v → %q, want %q", c.q, r.Desc, c.want)
		}
	}
}

func TestModifiedBeatsVanillaOnDetailedDescriptions(t *testing.T) {
	// §II-B(e): under the modified index, "skim milk" must prefer the
	// long, detailed nonfat-milk description over short ones like
	// "Milk shakes, thick chocolate".
	m := defaultMatcher(t)
	r := mustMatch(t, m, Query{Name: "skim milk"})
	if !strings.HasPrefix(r.Desc, "Milk, nonfat") {
		t.Errorf("skim milk (modified) → %q, want Milk, nonfat, …", r.Desc)
	}
}

func TestMetricsDiverge(t *testing.T) {
	// The two metrics must disagree on a meaningful fraction of queries —
	// the paper found 227/1000 differing. Here we just require that some
	// of a probe set diverge.
	mod := New(usda.Seed(), DefaultOptions())
	vanOpts := DefaultOptions()
	vanOpts.Metric = VanillaJaccard
	van := New(usda.Seed(), vanOpts)

	probes := []Query{
		{Name: "skim milk"}, {Name: "red lentils"}, {Name: "vegetable broth"},
		{Name: "chicken"}, {Name: "tomato paste"}, {Name: "butter"},
		{Name: "milk"}, {Name: "cheese"}, {Name: "sour cream"},
		{Name: "whole milk"}, {Name: "brown sugar"}, {Name: "olive oil"},
	}
	diverged := 0
	for _, q := range probes {
		a, ok1 := mod.Match(q)
		b, ok2 := van.Match(q)
		if ok1 && ok2 && a.NDB != b.NDB {
			diverged++
		}
	}
	if diverged == 0 {
		t.Error("modified and vanilla Jaccard never diverged on probe set")
	}
}

func TestScoreBounds(t *testing.T) {
	m := defaultMatcher(t)
	for _, q := range []Query{
		{Name: "butter"}, {Name: "skim milk"}, {Name: "red lentils"},
		{Name: "garam masala spice blend"},
	} {
		for _, r := range m.Rank(q, 0) {
			if r.Score <= 0 || r.Score > 1 {
				t.Errorf("score out of (0,1] for %+v: %+v", q, r)
			}
		}
	}
}

func TestUnmatchable(t *testing.T) {
	m := defaultMatcher(t)
	// The paper's own example of a region-specific unmappable ingredient.
	if r, ok := m.Match(Query{Name: "xyzzy frobnitz"}); ok {
		t.Errorf("nonsense matched %q", r.Desc)
	}
	if r, ok := m.Match(Query{Name: ""}); ok {
		t.Errorf("empty query matched %q", r.Desc)
	}
}

func TestRankOrdering(t *testing.T) {
	m := defaultMatcher(t)
	rs := m.Rank(Query{Name: "milk"}, 10)
	if len(rs) < 3 {
		t.Fatalf("milk should rank many candidates, got %d", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		a, b := rs[i-1], rs[i]
		if a.Score < b.Score {
			t.Fatalf("rank not score-sorted at %d", i)
		}
		if a.Score == b.Score && a.Priority > b.Priority {
			t.Fatalf("rank not priority-sorted at %d", i)
		}
		if a.Score == b.Score && a.Priority == b.Priority && a.index > b.index {
			t.Fatalf("rank not index-sorted at %d", i)
		}
	}
}

func TestRankK(t *testing.T) {
	m := defaultMatcher(t)
	if got := m.Rank(Query{Name: "milk"}, 3); len(got) != 3 {
		t.Errorf("Rank k=3 returned %d", len(got))
	}
	all := m.Rank(Query{Name: "milk"}, 0)
	if len(all) < 4 {
		t.Errorf("Rank k=0 should return all, got %d", len(all))
	}
}

func TestStateTempFreshnessFoldedIn(t *testing.T) {
	// §II-B(d): STATE/TEMP/DF entities join the comparison.
	m := defaultMatcher(t)
	plain := mustMatch(t, m, Query{Name: "milk"})
	skim := mustMatch(t, m, Query{Name: "milk", State: "skim"})
	if plain.NDB == skim.NDB {
		t.Error("STATE entity had no effect on match")
	}
	if !strings.Contains(skim.Desc, "skim") {
		t.Errorf("milk+skim → %q", skim.Desc)
	}
}

func TestDeterminism(t *testing.T) {
	m := defaultMatcher(t)
	q := Query{Name: "sour cream", State: "low fat"}
	first := mustMatch(t, m, q)
	for i := 0; i < 20; i++ {
		if r := mustMatch(t, m, q); r.NDB != first.NDB {
			t.Fatalf("non-deterministic match: %d vs %d", r.NDB, first.NDB)
		}
	}
}

// Property: the modified score is always ≥ the vanilla score for the same
// query/description pair, since |A| ≤ |A∪B|.
func TestModifiedDominatesVanilla(t *testing.T) {
	db := usda.Seed()
	mod := New(db, Options{Metric: ModifiedJaccard, MinScore: 1e-9})
	van := New(db, Options{Metric: VanillaJaccard, MinScore: 1e-9})
	names := []string{"milk", "butter", "egg", "red lentils", "chicken broth",
		"sesame seeds", "sour cream", "apple", "skim milk"}
	for _, name := range names {
		q := Query{Name: name}
		modAll := mod.Rank(q, 0)
		vanAll := van.Rank(q, 0)
		vanByNDB := map[int]float64{}
		for _, r := range vanAll {
			vanByNDB[r.NDB] = r.Score
		}
		for _, r := range modAll {
			if v, ok := vanByNDB[r.NDB]; ok && r.Score < v-1e-12 {
				t.Errorf("%q vs NDB %d: modified %.4f < vanilla %.4f",
					name, r.NDB, r.Score, v)
			}
		}
	}
}

// Property: NormalizeTokens is stable (idempotent when re-joined).
func TestNormalizeTokensIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := NormalizeTokens(s)
		again := NormalizeTokens(strings.Join(once, " "))
		return reflect.DeepEqual(once, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: matching is total and never panics over synthetic databases.
func TestMatchSyntheticNeverPanics(t *testing.T) {
	db := usda.Synthetic(300, 11)
	m := NewDefault(db)
	f := func(name string) bool {
		_, _ = m.Match(Query{Name: name})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMatchSeed(b *testing.B) {
	m := NewDefault(usda.Seed())
	queries := []Query{
		{Name: "unsalted butter"}, {Name: "skim milk"}, {Name: "red lentils"},
		{Name: "boneless chicken breast"}, {Name: "all-purpose flour"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(queries[i%len(queries)])
	}
}

func BenchmarkMatchLargeDB(b *testing.B) {
	m := NewDefault(usda.Merged(7500, 3))
	q := Query{Name: "golden harvest beans"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(q)
	}
}

// TestNewFromIndexRejectsOffsetsPastArrays: a CSR offset that runs past
// its array mid-way, yet ends where the array does, must fail
// validation rather than panic the validator (a case FuzzLoad found).
func TestNewFromIndexRejectsOffsetsPastArrays(t *testing.T) {
	db := usda.MustNewDB([]usda.Food{{NDB: 1, Desc: "a"}, {NDB: 2, Desc: "b"}})
	valid := func() *Index {
		return &Index{
			Terms: []string{"a", "b"}, HasRaw: []bool{false, false},
			DocTerms: []uint32{0, 1}, DocOff: []int32{0, 1, 2},
			PostDocs: []int32{0, 1}, PostPri: []int32{1, 1}, PostOff: []int32{0, 1, 2},
		}
	}
	if _, err := NewFromIndex(db, DefaultOptions(), valid()); err != nil {
		t.Fatalf("valid index rejected: %v", err)
	}
	// Each tampered span stays sorted up to the array's end, so only the
	// bound on the offset stops the validator reading past it.
	docs := valid()
	docs.DocOff[1] = 7
	posts := valid()
	posts.PostOff[1] = 7
	for name, idx := range map[string]*Index{"doc offsets": docs, "posting offsets": posts} {
		if _, err := NewFromIndex(db, DefaultOptions(), idx); !errors.Is(err, ErrBadIndex) {
			t.Errorf("%s: err = %v, want %v", name, err, ErrBadIndex)
		}
	}
}
