package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/usda"
)

// TestRecordLayout pins the bytes each cached phrase costs: the record
// is IngredientResult without Phrase and Profile. A new
// IngredientResult field must either stay out of the record or be paid
// for here, not silently re-inflate the phrase cache.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 240 {
		t.Errorf("record is %d bytes, want at most 240", n)
	}
}

// profileBits spells a profile as the bit patterns of its fields, so
// comparisons are exact and NaN-safe.
func profileBits(p nutrition.Profile) []uint64 {
	v := reflect.ValueOf(p)
	bits := make([]uint64, v.NumField())
	for i := range bits {
		bits[i] = math.Float64bits(v.Field(i).Float())
	}
	return bits
}

// TestCachedProfileFollowsSnapshot: cached records rebuild Profile from
// the food the miss matched, so after a swap to a database that differs
// only in nutrient vectors, every tier must serve the new database's
// profiles bit for bit — first after Install, then again after an
// ObserveUnits pass changes the unit statistics.
func TestCachedProfileFollowsSnapshot(t *testing.T) {
	phrases := stormPhrases(t)
	db2 := scaledSeed(t, 1.7)
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 13, CachePolicy: memo.PolicyTinyLFU})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(db2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// serve runs both entry shapes: the first parallel batch refills the
	// phrase cache, the second and the sequential pass hit it.
	serve := func() [][]IngredientResult {
		return [][]IngredientResult{
			estimateAll(t, e, phrases, 4),
			estimateAll(t, e, phrases, 4),
			estimateAll(t, e, phrases, 1),
		}
	}
	check := func(stage string, got [][]IngredientResult) {
		t.Helper()
		want := estimateAll(t, ref, phrases, 1)
		for _, pass := range got {
			for i := range pass {
				if g, w := profileBits(pass[i].Profile), profileBits(want[i].Profile); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: %q served profile %+v, want the second database's %+v",
						stage, phrases[i], pass[i].Profile, want[i].Profile)
				}
				if g, w := fmt.Sprintf("%+v", pass[i]), fmt.Sprintf("%+v", want[i]); g != w {
					t.Fatalf("%s: %q served\n %s\nwant\n %s", stage, phrases[i], g, w)
				}
			}
		}
	}

	before := serve() // warm both tiers on the boot database
	if _, err := e.Install(db2, match.BuildIndex(db2), "scaled"); err != nil {
		t.Fatal(err)
	}
	after := serve()
	check("after Install", after)
	changed := 0
	for i := range before[0] {
		if before[0][i].Mapped && before[0][i].Profile != after[0][i].Profile {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no profile differs between the databases; the test cannot see a stale record")
	}

	teach := phrases[:len(phrases)/3]
	e.ObserveUnits(teach)
	ref.ObserveUnits(teach)
	check("after ObserveUnits", serve())
}
