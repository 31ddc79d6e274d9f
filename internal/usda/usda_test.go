package usda

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"nutriprofile/internal/nutrition"
)

func TestSeedLoads(t *testing.T) {
	db := Seed()
	if db.Len() < 250 {
		t.Fatalf("seed database has %d foods, want ≥250", db.Len())
	}
}

func TestSeedOrderedByNDB(t *testing.T) {
	db := Seed()
	for i := 1; i < db.Len(); i++ {
		if db.At(i-1).NDB() >= db.At(i).NDB() {
			t.Fatalf("seed not NDB-ordered at %d: %d ≥ %d (%q / %q)",
				i, db.At(i-1).NDB(), db.At(i).NDB(), db.At(i-1).Desc(), db.At(i).Desc())
		}
	}
}

// TestSeedTableII verifies every Table II description from the paper
// exists verbatim (these drive the §II-B heuristics' collision families).
func TestSeedTableII(t *testing.T) {
	wanted := []string{
		"Butter, salted",
		"Butter, whipped, with salt",
		"Butter, without salt",
		"Cheese, blue",
		"Cheese, cottage, creamed, large or small curd",
		"Cheese, mozzarella, whole milk",
		"Milk, reduced fat, fluid, 2% milkfat, with added vitamin A and vitamin D",
		"Milk, reduced fat, fluid, 2% milkfat, with added nonfat milk solids and vitamin A and vitamin D",
		"Milk, reduced fat, fluid, 2% milkfat, protein fortified, with added vitamin A and vitamin D",
		"Milk, indian buffalo, fluid",
		"Milk shakes, thick chocolate",
		"Milk shakes, thick vanilla",
		"Yogurt, plain, whole milk, 8 grams protein per 8 ounce",
		"Yogurt, vanilla, low fat, 11 grams protein per 8 ounce",
		"Egg, whole, raw, fresh",
		"Egg, white, raw, fresh",
		"Egg, yolk, raw, fresh",
		"Apples, raw, with skin",
		"Apples, raw, without skin",
	}
	descs := map[string]bool{}
	db := Seed()
	for i := 0; i < db.Len(); i++ {
		descs[db.At(i).Desc()] = true
	}
	for _, d := range wanted {
		if !descs[d] {
			t.Errorf("Table II description missing from seed: %q", d)
		}
	}
}

// TestSeedTableIII verifies the food descriptions named in the paper's
// Table III comparison all exist.
func TestSeedTableIII(t *testing.T) {
	wanted := []string{
		"Lentils, pink or red, raw",
		"Cherries, sour, red, raw",
		"Soup, tomato beef with noodle, canned, condensed",
		"Soup, tomato, canned, condensed",
		"Coriander (cilantro) leaves, raw",
		"Spices, coriander leaf, dried",
		"Tomato products, canned, paste, without salt added",
		"Soup, vegetable with beef broth, canned, condensed",
		"Soup, vegetable broth, ready to serve",
		"Broadbeans (fava beans), mature seeds, raw",
		"Beans, fava, in pod, raw",
		"Spices, pepper, red or cayenne",
		"Spices, pepper, black",
		"Chicken, broilers or fryers, meat and skin and giblets and neck, raw",
		"Fast foods, quesadilla, with chicken",
		"Salad dressing, sesame seed dressing, regular",
		"Seeds, sesame seeds, whole, dried",
	}
	descs := map[string]bool{}
	db := Seed()
	for i := 0; i < db.Len(); i++ {
		descs[db.At(i).Desc()] = true
	}
	for _, d := range wanted {
		if !descs[d] {
			t.Errorf("Table III description missing from seed: %q", d)
		}
	}
}

// TestTableIVButter checks the exact Table IV weight rows for
// "Butter,salted": pat 5.0, tbsp 14.2, cup 227, stick 113.
func TestTableIVButter(t *testing.T) {
	db := Seed()
	butter, ok := db.ByNDB(1001)
	if !ok {
		t.Fatal("Butter, salted (NDB 1001) missing")
	}
	want := map[string]float64{"pat": 5.0, "tbsp": 14.2, "cup": 227.0, "stick": 113.0}
	for _, wt := range butter.Food().Weights {
		first := strings.Fields(wt.Unit)[0]
		if g, ok := want[first]; ok {
			if wt.GramsPerOne() != g {
				t.Errorf("butter %s = %vg, want %v", first, wt.GramsPerOne(), g)
			}
			delete(want, first)
		}
	}
	if len(want) != 0 {
		t.Errorf("butter missing Table IV units: %v", want)
	}
}

func TestGramsForUnit(t *testing.T) {
	db := Seed()
	butter, _ := db.ByNDB(1001)
	// tablespoon resolves via the alias "tbsp".
	if g, ok := butter.GramsForUnit("tablespoon"); !ok || g != 14.2 {
		t.Errorf("GramsForUnit(tablespoon) = (%v,%v), want (14.2,true)", g, ok)
	}
	// pat is in the table despite the noisy raw spelling.
	if g, ok := butter.GramsForUnit("pat"); !ok || g != 5.0 {
		t.Errorf("GramsForUnit(pat) = (%v,%v), want (5,true)", g, ok)
	}
	// teaspoon is NOT in butter's table — the §II-C conversion fallback
	// (handled by the core package) must kick in.
	if _, ok := butter.GramsForUnit("teaspoon"); ok {
		t.Error("GramsForUnit(teaspoon) should be absent for butter")
	}
	// Size equivalence: egg has large/medium/small rows; asking for any
	// size must hit one.
	egg, _ := db.ByNDB(1123)
	if g, ok := egg.GramsForUnit("medium"); !ok || g < 38 || g > 63 {
		t.Errorf("egg GramsForUnit(medium) = (%v,%v)", g, ok)
	}
}

func TestNewDBValidation(t *testing.T) {
	good := Food{NDB: 1, Desc: "Test, raw", Per100g: nutrition.Profile{EnergyKcal: 10}}
	cases := []struct {
		name  string
		foods []Food
		want  error
	}{
		{"duplicate ndb", []Food{good, good}, ErrDuplicateNDB},
		{"zero ndb", []Food{{NDB: 0, Desc: "x"}}, ErrBadFood},
		{"empty desc", []Food{{NDB: 2}}, ErrBadFood},
		{"negative nutrient", []Food{{NDB: 3, Desc: "x", Per100g: nutrition.Profile{FatG: -1}}}, ErrBadFood},
		{"bad weight", []Food{{NDB: 4, Desc: "x", Weights: []Weight{{Seq: 1, Amount: 0, Unit: "cup", Grams: 5}}}}, ErrBadFood},
	}
	for _, c := range cases {
		if _, err := NewDB(c.foods); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := NewDB([]Food{good}); err != nil {
		t.Errorf("valid food rejected: %v", err)
	}
}

func TestNewDBSorts(t *testing.T) {
	db, err := NewDB([]Food{
		{NDB: 30, Desc: "C"},
		{NDB: 10, Desc: "A"},
		{NDB: 20, Desc: "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.At(0).NDB() != 10 || db.At(1).NDB() != 20 || db.At(2).NDB() != 30 {
		t.Error("NewDB did not sort by NDB")
	}
	if f, ok := db.ByNDB(20); !ok || f.Desc() != "B" {
		t.Error("ByNDB broken after sort")
	}
	if _, ok := db.ByNDB(999); ok {
		t.Error("ByNDB found nonexistent food")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := Seed()
	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip: %d foods, want %d", back.Len(), db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		a, b := db.At(i).Food(), back.At(i).Food()
		if a.NDB != b.NDB || a.Desc != b.Desc || a.Per100g != b.Per100g {
			t.Fatalf("food %d mismatch after round trip:\n%+v\n%+v", i, a, b)
		}
		if len(a.Weights) != len(b.Weights) {
			t.Fatalf("food %d weight count mismatch", i)
		}
		for j := range a.Weights {
			if a.Weights[j] != b.Weights[j] {
				t.Fatalf("food %d weight %d mismatch: %+v vs %+v", i, j, a.Weights[j], b.Weights[j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"not,enough,fields\n",
		"abc,Desc,1,1,1,1,1,1,1,1,1,1,1\n",
		"1,Desc,x,1,1,1,1,1,1,1,1,1,1\n",
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", c)
		}
	}
	// Weight referencing unknown food.
	bad := "1,Desc,1,1,1,1,1,1,1,1,1,1,1\nWEIGHTS\n99,1,1,cup,100\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("ReadCSV with orphan weight succeeded, want error")
	}
}

func TestSeedProfilesPlausible(t *testing.T) {
	db := Seed()
	for i := 0; i < db.Len(); i++ {
		f := db.At(i).Food()
		if !f.Per100g.Valid() {
			t.Errorf("NDB %d %q: invalid profile", f.NDB, f.Desc)
		}
		if f.Per100g.EnergyKcal > 910 {
			t.Errorf("NDB %d %q: energy %.0f kcal/100g exceeds pure fat",
				f.NDB, f.Desc, f.Per100g.EnergyKcal)
		}
		if f.Per100g.ProteinG+f.Per100g.FatG+f.Per100g.CarbsG > 101 {
			t.Errorf("NDB %d %q: macros exceed 100g per 100g", f.NDB, f.Desc)
		}
		for _, wt := range f.Weights {
			if wt.GramsPerOne() <= 0 || wt.GramsPerOne() > 5000 {
				t.Errorf("NDB %d %q: implausible weight %+v", f.NDB, f.Desc, wt)
			}
		}
	}
}

func TestSeedDescriptionsCommaStructured(t *testing.T) {
	db := Seed()
	for i := 0; i < db.Len(); i++ {
		d := db.At(i).Desc()
		if strings.TrimSpace(d) != d || d == "" {
			t.Errorf("NDB %d: badly trimmed description %q", db.At(i).NDB(), d)
		}
	}
}

func TestSynthetic(t *testing.T) {
	db := Synthetic(500, 42)
	if db.Len() != 500 {
		t.Fatalf("Synthetic(500) = %d foods", db.Len())
	}
	// Deterministic for the same seed.
	db2 := Synthetic(500, 42)
	for i := 0; i < db.Len(); i++ {
		if db.At(i).Desc() != db2.At(i).Desc() {
			t.Fatalf("Synthetic not deterministic at %d", i)
		}
	}
	// Different for a different seed.
	db3 := Synthetic(500, 43)
	same := 0
	for i := 0; i < db.Len(); i++ {
		if db.At(i).Desc() == db3.At(i).Desc() {
			same++
		}
	}
	if same == db.Len() {
		t.Error("Synthetic ignores seed")
	}
	// No duplicate descriptions.
	seen := map[string]bool{}
	for i := 0; i < db.Len(); i++ {
		if seen[db.At(i).Desc()] {
			t.Fatalf("duplicate synthetic description %q", db.At(i).Desc())
		}
		seen[db.At(i).Desc()] = true
	}
}

func TestMerged(t *testing.T) {
	db := Merged(100, 7)
	if db.Len() != Seed().Len()+100 {
		t.Fatalf("Merged len = %d", db.Len())
	}
	if _, ok := db.ByNDB(1001); !ok {
		t.Error("Merged lost the curated butter row")
	}
}

// Property: synthetic foods always validate and have macro-consistent
// energy.
func TestSyntheticProperty(t *testing.T) {
	f := func(seed int64) bool {
		db := Synthetic(50, seed)
		for i := 0; i < db.Len(); i++ {
			fo := db.At(i).Food()
			if !fo.Per100g.Valid() {
				return false
			}
			if fo.Per100g.EnergyKcal != fo.Per100g.MacroEnergyKcal() {
				return false
			}
			if len(fo.Weights) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSeedLookup(b *testing.B) {
	db := Seed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ByNDB(1001)
	}
}
