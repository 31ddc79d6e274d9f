// The doorkeeper: PolicyTinyLFU's whole admission rule (DESIGN.md §15).
//
// The problem with plain LRU under production recipe traffic: the
// phrase distribution is heavily skewed (a small head like "1 cup
// sugar" recurs across the whole corpus), and one cold bulk scan —
// 118k recipes of mostly-distinct phrases streaming through /v1/batch
// — evicts that entire hot head even though each scan key will never
// be seen again. Recency alone cannot tell a rising star from a
// one-hit wonder.
//
// The doorkeeper tells them apart by one bit. Every lookup marks its
// key in the shard's door: a first sighting inserts the key's
// fingerprint, a later one sets that slot's "seen again" bit. A store
// of an absent key lands only if the bit is set; otherwise it counts
// one rejection and allocates nothing. A key is therefore stored on
// its second sighting in an aging period, and a cold scan leaves
// nothing resident. What is resident is then ordinary LRU.
//
// Aging: the door is cleared every period lookups (periodFactor ×
// shard capacity), so a key must be seen again within about five
// cache-fills of traffic to be stored.
//
// Only lookups write the door; a store only reads it. Each period adds
// at most one fingerprint per lookup, so the table, sized 1.5× the
// period, is never more than two-thirds full and every probe run ends
// at an empty slot. A store that marked the door would break that
// bound for a caller that stores without looking up: it could fill the
// table, and the probe loop would never find an empty slot.

package memo

import "fmt"

// Policy selects the cache's admission policy. The zero value is
// PolicyLRU.
type Policy uint8

const (
	// PolicyLRU stores every miss; the least-recently-used entry of a
	// full shard is evicted.
	PolicyLRU Policy = iota
	// PolicyTinyLFU is LRU behind the doorkeeper: a store of an absent
	// key lands only on the key's second sighting in an aging period.
	// It keeps the TinyLFU name as its -cache-policy spelling: the
	// doorkeeper is TinyLFU's first stage, here the whole policy.
	PolicyTinyLFU
)

// String returns the spelling ParsePolicy accepts ("lru", "tinylfu").
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyTinyLFU:
		return "tinylfu"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy parses the -cache-policy flag spelling of a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "lru":
		return PolicyLRU, nil
	case "tinylfu":
		return PolicyTinyLFU, nil
	default:
		return PolicyLRU, fmt.Errorf("unknown cache policy %q (want lru or tinylfu)", s)
	}
}

// periodFactor sets the aging period, period = periodFactor × shard
// capacity lookups: half the TinyLFU paper's sample size of 10× the
// capacity, its reset schedule.
const periodFactor = 5

// seenAgain is the slot bit a key's second sighting sets; the low 15
// bits hold its fingerprint.
const seenAgain = 1 << 15

// door is one shard's doorkeeper: an open-addressed, linearly probed
// table of uint16 slots, each a nonzero 15-bit fingerprint plus the
// seenAgain bit (0 marks an empty slot).
type door struct {
	slots  []uint16 // nil until the shard's first lookup
	mask   uint64   // len(slots) - 1
	period int      // lookups per aging period; 0: no door (PolicyLRU, or no capacity)
	marks  int      // lookups so far this period
}

// init sizes the door for a shard of capacity entries. The slot count
// is the smallest power of two at least 1.5× the period, so a full
// period fills at most two-thirds of it (62.5 % at the default sizes:
// a 512-entry shard, one of the default 8,192-entry cache's 16, gets
// 4,096 slots, 8 KB). mark allocates them on the shard's first lookup:
// a booting nutriserve's heap sits just under the runtime's first GC
// trigger, and 32 doors allocated at construction started a GC cycle
// during or just after boot.
func (d *door) init(capacity int) {
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
func (d *door) home(h uint64) (uint64, uint16) {
	m := mix64(h)
	fp := uint16(m >> 49)
	if fp == 0 {
		fp = 1
	}
	return m & d.mask, fp
}

// mark records one lookup of key hash h, clearing the door first when
// the period has elapsed.
func (d *door) mark(h uint64) {
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
			return
		case 0:
			d.slots[i] = fp
			return
		}
		i = (i + 1) & d.mask
	}
}

// seen reports whether h was looked up at least twice this period.
func (d *door) seen(h uint64) bool {
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
