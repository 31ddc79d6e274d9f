package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"nutriprofile/internal/memo"
	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/usda"
)

// TestRecordLayout pins the bytes each cached phrase costs. The slot
// L1 entry is a reference plus a hash, small enough for the map to
// store inline; the record is IngredientResult without Phrase and
// Profile. A new IngredientResult field must either stay out of the
// record or be paid for here, not silently re-inflate both tiers.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(l1Entry{}); n != 16 {
		t.Errorf("l1Entry is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(record{}); n > 240 {
		t.Errorf("record is %d bytes, want at most 240", n)
	}
}

// TestOneResidentRecordPerPhrase: after sharded 4-worker batches, every
// slot-L1 entry references the very record the phrase cache holds for
// its key, so a phrase both tiers hold is resident once.
func TestOneResidentRecordPerPhrase(t *testing.T) {
	phrases := stormPhrases(t)
	for _, policy := range []memo.Policy{memo.PolicyLRU, memo.PolicyTinyLFU} {
		// Room for every distinct phrase in both tiers: nothing is
		// evicted, so every L1 record must still be the L2's.
		e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 13, CachePolicy: policy})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			estimateAll(t, e, phrases, 4)
		}
		sc := new(pipeline.Scratch)
		entries := 0
		for i := range e.slots {
			sl := &e.slots[i]
			sl.mu.Lock()
			for phrase, ent := range sl.l1 {
				entries++
				sc.Tokenize(phrase)
				key := sc.PhraseKey()
				h := memo.Hash(key)
				if ent.l2h != h {
					t.Errorf("%v: L1 entry %q carries L2 hash %x, want %x", policy, phrase, ent.l2h, h)
				}
				switch l2 := e.phraseCache.GetBytesHashRef(h, key); {
				case l2 == nil:
					t.Errorf("%v: L1 entry %q has no phrase-cache record", policy, phrase)
				case l2 != ent.rec:
					t.Errorf("%v: L1 entry %q holds its own record, not the phrase cache's", policy, phrase)
				}
			}
			sl.mu.Unlock()
		}
		if entries == 0 {
			t.Fatalf("%v: sharded batches populated no L1 entries", policy)
		}
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
	// serve runs every tier: the first sharded batch fills the slot L1s
	// (their misses hit the warm L2), the second hits them, and the
	// sequential pass reads the phrase cache directly.
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
	if _, err := e.Install(db2, nil, "scaled"); err != nil {
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
