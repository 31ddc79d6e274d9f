package admit

import (
	"encoding/binary"
	"testing"
)

// TestHashSpellingsAgree: a key hashes alike spelled as bytes or as a
// string, so the scratch's string probes and its byte probes mark the
// same door slot.
func TestHashSpellingsAgree(t *testing.T) {
	for _, k := range []string{"", "a", "salt", "2 cups flour", "ingredient-42", "\x00\xff"} {
		if Hash(k) != Hash([]byte(k)) {
			t.Errorf("Hash(%q) differs between its string and byte spellings", k)
		}
	}
	// FNV-1a's published test vector.
	if got := Hash("a"); got != 0xaf63dc4c8601ec8c {
		t.Errorf(`Hash("a") = %#x, want 0xaf63dc4c8601ec8c`, got)
	}
}

// TestMarkReportsSecondSighting: Mark reports false on a key's first
// sighting in a period and true from its second on, and Seen agrees
// with it without marking.
func TestMarkReportsSecondSighting(t *testing.T) {
	var d Door
	d.Init(64)
	h := Hash("cup")
	if d.Seen(h) {
		t.Fatal("Seen before any mark")
	}
	if d.Mark(h) || d.Seen(h) {
		t.Fatal("a first sighting reads seen again")
	}
	if !d.Mark(h) || !d.Seen(h) {
		t.Fatal("a second sighting does not read seen again")
	}
	if !d.Mark(h) {
		t.Fatal("a third sighting does not read seen again")
	}
	if other := Hash("cups"); d.Seen(other) || d.Mark(other) {
		t.Fatal("an unmarked key reads seen again")
	}
}

// TestDoorAging: the door is cleared on the first mark after period
// marks, so a key marked once before the clear is on its first sighting
// after it. A period never holds more fingerprints than marks.
func TestDoorAging(t *testing.T) {
	var d Door
	d.Init(64)
	used := func() int {
		n := 0
		for _, v := range d.slots {
			if v != 0 {
				n++
			}
		}
		return n
	}
	old := Hash("old")
	d.Mark(old)
	for i := 1; i < d.Period(); i++ {
		d.Mark(hashOf(uint64(i)))
	}
	if n := used(); n > d.Period() || n < d.Period()-4 {
		t.Fatalf("door holds %d fingerprints after a period of %d distinct marks", n, d.Period())
	}
	d.Mark(hashOf(1 << 40)) // ends the period: the door is cleared first
	if n := used(); n != 1 {
		t.Fatalf("door holds %d fingerprints after its clear and one mark, want 1", n)
	}
	if d.Mark(old) {
		t.Fatal("a key marked once before the clear reads seen again after it")
	}
	if !d.Mark(old) {
		t.Fatal("a second sighting in the new period does not read seen again")
	}
}

func hashOf(i uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return Hash(b[:])
}

// TestDoorkeeperFalsePositives fills a door to its aging period's limit
// — period distinct keys, the most a period can add — and checks a
// fixed set of 1M hashes none of them share against it. A false "seen
// again" is what lets a first sighting past a memo's store gate. On the
// door as filled (every key marked once) no probe may read seen again.
// Setting the bit on every slot is worse than any period can reach,
// since each set bit costs a second mark; there the probes read seen
// again exactly when their fingerprint is found, and fewer than 0.1 %
// may. The 2-probe bloom an earlier doorkeeper used answered "seen" for
// about 2 % at the same fill.
func TestDoorkeeperFalsePositives(t *testing.T) {
	var d Door
	d.Init(512) // one shard of the default 8,192-entry, 16-shard cache
	for i := 0; i < d.period; i++ {
		d.Mark(hashOf(uint64(i)))
	}
	used, seenBits := 0, 0
	for _, v := range d.slots {
		if v != 0 {
			used++
		}
		if v&seenAgain != 0 {
			seenBits++
		}
	}
	// A key confused with an earlier one would set its bit instead of
	// taking a slot of its own.
	if used != d.period || seenBits != 0 || 8*used > 5*len(d.slots) {
		t.Fatalf("door holds %d fingerprints (%d seen again) in %d slots after %d keys; want all, none, at most 62.5 %% full",
			used, seenBits, len(d.slots), d.period)
	}
	const probes = 1 << 20
	countSeen := func() int {
		n := 0
		for i := uint64(0); i < probes; i++ {
			if d.Seen(hashOf(1<<32 + i)) {
				n++
			}
		}
		return n
	}
	if n := countSeen(); n != 0 {
		t.Fatalf("%d of %d unseen hashes read seen again on a door of first sightings", n, probes)
	}
	for i, v := range d.slots {
		if v != 0 {
			d.slots[i] = v | seenAgain
		}
	}
	falseSeen := countSeen()
	t.Logf("door %d/%d slots full, every one seen again: %d of %d unseen hashes read seen again (%.4f %%)",
		used, len(d.slots), falseSeen, probes, 100*float64(falseSeen)/probes)
	if falseSeen*1000 >= probes {
		t.Fatalf("%d of %d unseen hashes read seen again; want under 0.1 %%", falseSeen, probes)
	}
}
