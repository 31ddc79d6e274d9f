package usda

import (
	"strings"
	"testing"
)

func TestExpandedSeedSize(t *testing.T) {
	if n := Seed().Len(); n < 600 {
		t.Errorf("expanded seed has %d foods, want ≥600", n)
	}
}

func TestNoDuplicateDescriptions(t *testing.T) {
	db := Seed()
	seen := map[string]int{}
	for i := 0; i < db.Len(); i++ {
		f := db.At(i).Food()
		if prev, dup := seen[f.Desc]; dup {
			t.Errorf("description %q duplicated at NDB %d and %d", f.Desc, prev, f.NDB)
		}
		seen[f.Desc] = f.NDB
	}
}

func TestSRGroupConventions(t *testing.T) {
	// The leading NDB digits encode the SR food group; spot-check that
	// the group inventory matches the description vocabulary.
	probes := map[string]int{ // description prefix → NDB/1000 group
		"Butter,":  1,
		"Cheese,":  1,
		"Spices,":  2,
		"Babyfood": 3,
		"Oil,":     4,
		"Chicken,": 5,
		"Soup,":    6,
		"Apples,":  9,
		"Pork,":    10,
		"Nuts,":    12,
		"Beef,":    13,
		"Fish,":    15,
		"Lamb,":    17,
	}
	db := Seed()
	for i := 0; i < db.Len(); i++ {
		f := db.At(i).Food()
		if f.NDB >= 40000 {
			continue // SR's "added foods" range has no group convention
		}
		for prefix, group := range probes {
			if strings.HasPrefix(f.Desc, prefix) && f.NDB/1000 != group {
				t.Errorf("NDB %d (%q): expected group %d", f.NDB, f.Desc, group)
			}
		}
	}
}

func TestCollisionFamiliesGrewSafely(t *testing.T) {
	// The extension added near-duplicates; each family head must still
	// have several members (that is the point) and every member must be
	// retrievable by NDB.
	db := Seed()
	families := map[string]int{ // head term → minimum member count
		"Cheese": 15,
		"Milk":   10,
		"Beef":   10,
		"Fish":   12,
		"Bread":  8,
		"Soup":   10,
		"Spices": 30,
	}
	counts := map[string]int{}
	for i := 0; i < db.Len(); i++ {
		head := strings.SplitN(db.At(i).Desc(), ",", 2)[0]
		counts[head]++
	}
	for head, min := range families {
		if counts[head] < min {
			t.Errorf("family %q has %d members, want ≥%d", head, counts[head], min)
		}
	}
}

func TestEveryFoodHasUsableWeightOrIsPer100g(t *testing.T) {
	// Foods without a single resolvable weight row can never be mapped
	// by unit; a few are tolerable (the Fig. 2 residue) but they must
	// stay rare.
	db := Seed()
	unusable := 0
	for i := 0; i < db.Len(); i++ {
		f := db.At(i).Food()
		ok := false
		for _, w := range f.Weights {
			if _, known := normalizeUnit(w.Unit); known {
				ok = true
				break
			}
		}
		if !ok {
			unusable++
		}
	}
	if frac := float64(unusable) / float64(db.Len()); frac > 0.05 {
		t.Errorf("%d foods (%.1f%%) have no resolvable weight row", unusable, 100*frac)
	}
}
