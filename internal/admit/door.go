// Package admit is the doorkeeper: the one admission rule behind every
// bounded memo in the program — the phrase and match caches of package
// memo, and the NER scratch's unit memo and field interner (DESIGN.md
// §15 and §10). It is a leaf package so that both can import it.
//
// The problem with storing every miss: recipe traffic is heavily
// skewed (a small head like "1 cup sugar" recurs across the whole
// corpus) under a long tail of spellings seen once, and a cold bulk
// scan — 118k recipes of mostly-distinct phrases streaming through
// /v1/batch — fills a memo with entries that will never be read again,
// evicting the hot head or pinning memory until a wholesale clear.
// Recency alone cannot tell a rising star from a one-hit wonder.
//
// The doorkeeper tells them apart by one bit. Each sighting of a key
// marks it in the door: a first sighting inserts the key's fingerprint,
// a later one sets that slot's "seen again" bit. A memo stores an
// absent key only if the bit is set, so a key is stored on its second
// sighting in an aging period and a cold scan leaves nothing resident.
//
// Aging: the door is cleared every period marks (periodFactor × the
// capacity it was sized for), so a key must be seen again within about
// five memo-fills of traffic to be stored.
//
// Only Mark writes the door. Each period adds at most one fingerprint
// per mark, so the table, sized 1.5× the period, is never more than
// two-thirds full and every probe run ends at an empty slot.
package admit

// periodFactor sets the aging period, period = periodFactor × capacity
// marks: half the TinyLFU paper's sample size of 10× the capacity, its
// reset schedule.
const periodFactor = 5

// seenAgain is the slot bit a key's second sighting sets; the low 15
// bits hold its fingerprint.
const seenAgain = 1 << 15

// Door is one doorkeeper: an open-addressed, linearly probed table of
// uint16 slots, each a nonzero 15-bit fingerprint plus the seenAgain bit
// (0 marks an empty slot). The zero value is no door; Init sizes it.
// A Door is not safe for concurrent use.
type Door struct {
	slots  []uint16 // nil until the first Mark
	mask   uint64   // len(slots) - 1
	period int      // marks per aging period; 0: not sized
	marks  int      // marks so far this period
}

// Init sizes d for a memo of capacity entries. The slot count is the
// smallest power of two at least 1.5× the period, so a full period
// fills at most two-thirds of it (62.5 % at capacity 512: 4,096 slots,
// 8 KB). Mark allocates them on the door's first sighting: a booting
// nutriserve's heap sits just under the runtime's first GC trigger, and
// doors allocated at construction started a GC cycle during or just
// after boot.
func (d *Door) Init(capacity int) {
	d.period = periodFactor * capacity
	if d.period < 32 {
		d.period = 32
	}
	slots := 64
	for slots < d.period*3/2 {
		slots <<= 1
	}
	d.mask = uint64(slots - 1)
}

// Period returns the marks per aging period, 0 before Init.
func (d *Door) Period() int { return d.period }

// Hash is the 64-bit FNV-1a hash of a key, spelled as bytes or as a
// string: both spellings of a key hash alike.
func Hash[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer — cheap avalanche so the slot and
// fingerprint use all bits of the FNV-1a key hash.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// home returns h's home slot and nonzero fingerprint: the low bits of
// its remixed hash pick the slot, the top 15 the fingerprint, so two
// keys are confused only if they agree on both.
func (d *Door) home(h uint64) (uint64, uint16) {
	m := mix64(h)
	fp := uint16(m >> 49)
	if fp == 0 {
		fp = 1
	}
	return m & d.mask, fp
}

// Mark records one sighting of key hash h, clearing the door first when
// the period has elapsed, and reports whether h has now been seen at
// least twice this period. d must have been sized by Init.
func (d *Door) Mark(h uint64) bool {
	if d.marks == d.period {
		clear(d.slots)
		d.marks = 0
	}
	d.marks++
	if d.slots == nil {
		d.slots = make([]uint16, d.mask+1)
	}
	i, fp := d.home(h)
	for {
		switch d.slots[i] &^ seenAgain {
		case fp:
			d.slots[i] |= seenAgain
			return true
		case 0:
			d.slots[i] = fp
			return false
		}
		i = (i + 1) & d.mask
	}
}

// Seen reports whether h was marked at least twice this period.
func (d *Door) Seen(h uint64) bool {
	if d.slots == nil {
		return false
	}
	i, fp := d.home(h)
	for {
		switch v := d.slots[i]; v &^ seenAgain {
		case fp:
			return v&seenAgain != 0
		case 0:
			return false
		}
		i = (i + 1) & d.mask
	}
}
