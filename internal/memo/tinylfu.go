// W-TinyLFU-style admission for the memo cache (DESIGN.md §15).
//
// The problem with plain LRU under production recipe traffic: the
// phrase distribution is heavily skewed (a small head like "1 cup
// sugar" recurs across the whole corpus), and one cold bulk scan —
// 118k recipes of mostly-distinct phrases streaming through /v1/batch
// — evicts that entire hot head even though each scan key will never
// be seen again. Recency alone cannot tell a rising star from a
// one-hit wonder.
//
// W-TinyLFU fixes this with frequency-gated admission. Each shard
// keeps:
//
//   - a 4-bit count-min sketch (4 probe positions per key, counters
//     saturating at 15, 16 packed per uint64 word) estimating how
//     often each key hash has been looked up;
//   - a doorkeeper absorbing the first occurrence of every key, so the
//     sketch's nibbles are spent on keys seen at least twice —
//     one-hit wonders never touch a counter. It is an open-addressed
//     table of 16-bit fingerprints, sized so that one aging period's
//     first sightings never fill more than 62.5 % of it: it answers
//     "seen before" for a new key only on a fingerprint collision
//     inside one probe run, a few in 100,000;
//   - a small window LRU (~1% of shard capacity, min 1 entry) where
//     every stored key starts, giving bursty new arrivals a grace
//     period to accumulate frequency;
//   - the main LRU segment (the remaining capacity), which a
//     window-overflow candidate enters only by winning a frequency
//     duel: estimate(candidate) > estimate(main eviction victim).
//     Losers are dropped and counted as rejections.
//
// A key is stored at all only on its second sighting in an aging
// period: the store path refuses a key whose sketch count is still 0
// after the failed lookup's touch, counting a rejection and
// allocating nothing. A cold scan therefore leaves nothing resident.
//
// Aging: every sampleFactor×capacity/2 touches every counter is halved
// and the doorkeeper cleared, so frequency estimates decay and
// yesterday's hot keys cannot squat forever.
//
// Everything runs under the shard mutex the LRU path already holds,
// on the key hash the caller already computed (hash-once API), with
// zero allocations on the warm path: a Get hit is nibble arithmetic
// plus a list relink; the sketch and doorkeeper are fixed arrays,
// the sketch allocated at construction and the doorkeeper on the
// shard's first touch.
package memo

import "fmt"

// Policy selects the cache's eviction policy. The zero value is
// PolicyLRU, so existing constructors and struct literals keep plain
// LRU semantics.
type Policy uint8

const (
	// PolicyLRU is classic sharded LRU: every new key is admitted,
	// the least-recently-used entry of a full shard is evicted.
	PolicyLRU Policy = iota
	// PolicyTinyLFU is the W-TinyLFU-style windowed admission policy
	// described in this file's doc comment.
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

// windowFrac is the window segment's share of shard capacity: 1/100,
// minimum one entry. Caffeine's default; large enough to absorb
// bursts of genuinely-new hot keys, small enough that a scan flowing
// through the window cannot displace meaningful main-segment state.
const windowFrac = 100

// sampleFactor scales the sketch aging period, sample =
// sampleFactor×capacity: a period is sample/2 touches, after which
// counters are halved and the doorkeeper cleared — the classic reset
// schedule for the TinyLFU paper's W/C ratio of 10, in which a key
// must be re-seen within roughly five cache-fills of traffic to keep
// its frequency.
const sampleFactor = 10

// initTinyLFU sizes the window/main split and the frequency sketch
// for a shard holding perShard entries. Called once at construction.
func (s *shard[V]) initTinyLFU(perShard int) {
	s.windowCap = perShard / windowFrac
	if s.windowCap < 1 {
		s.windowCap = 1
	}
	s.mainCap = perShard - s.windowCap
	s.sk.init(perShard)
}

// insertTinyLFU adds a new key to the window segment and, on window
// overflow, runs the admission duel. Caller holds the shard mutex and
// has verified the key is absent.
func (s *shard[V]) insertTinyLFU(h uint64, key string, val V) {
	e := &entry[V]{key: key, val: val, h: h, seg: segWindow}
	s.m[key] = e
	s.wPushFront(e)
	s.windowLen++
	if s.windowLen <= s.windowCap {
		return
	}

	// Window overflow: the window's LRU tail is the admission
	// candidate. With windowCap >= 1 the candidate is never the entry
	// just inserted unless it is the only window entry, which cannot
	// overflow.
	cand := s.wtail
	s.wUnlink(cand)
	s.windowLen--

	if s.mainCap == 0 {
		// Degenerate capacity (1-entry shard): the window is the
		// whole cache and behaves as plain LRU.
		delete(s.m, cand.key)
		s.evictions++
		return
	}
	if s.mainLen < s.mainCap {
		s.admit(cand)
		return
	}
	// The candidate's side of the duel deliberately excludes the
	// doorkeeper bonus: a key seen once this aging period has sketch
	// count 0 and can never beat a resident victim (the duel is
	// strict), so one-hit wonders — the entire scan population — are
	// structurally unadmittable. The victim keeps the bonus, biasing
	// ties toward incumbency. A key must be seen twice within one
	// aging period to earn main-segment residency.
	victim := s.tail
	if s.sk.estimateSketch(cand.h) > s.sk.estimate(victim.h) {
		s.unlink(victim)
		delete(s.m, victim.key)
		s.mainLen--
		s.evictions++
		s.admit(cand)
		return
	}
	// The candidate is no more frequent than the main segment's
	// coldest entry — a one-hit wonder or scan key. Drop it; its
	// sketch counts survive, so if it comes back it can win later.
	delete(s.m, cand.key)
	s.rejections++
}

func (s *shard[V]) admit(e *entry[V]) {
	e.seg = segMain
	s.pushFront(e)
	s.mainLen++
	s.admissions++
}

// --- window-segment intrusive list (mirrors the main-list helpers) ---

func (s *shard[V]) wPushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.whead
	if s.whead != nil {
		s.whead.prev = e
	}
	s.whead = e
	if s.wtail == nil {
		s.wtail = e
	}
}

func (s *shard[V]) wUnlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.whead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.wtail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[V]) wMoveToFront(e *entry[V]) {
	if s.whead == e {
		return
	}
	s.wUnlink(e)
	s.wPushFront(e)
}

// --- frequency sketch: doorkeeper + 4-bit count-min ---

// sketch estimates per-key-hash access frequency. Counters are 4-bit
// saturating nibbles, 16 per uint64 word; each key maps to 4 probe
// positions (seed-mixed from the 64-bit key hash the cache already
// computed) and its estimate is the minimum nibble — the classic
// count-min bound, so collisions only ever over-estimate. The
// doorkeeper absorbs the first occurrence of every key: estimate =
// min-nibble + (doorkeeper hit ? 1 : 0), and the nibbles are only
// incremented for keys already past the doorkeeper.
//
// The doorkeeper is an open-addressed, linearly probed table of 16-bit
// fingerprints (0 marks an empty slot). A period is sample/2 touches
// and each touch adds at most one fingerprint, so the table holds at
// most sample/2 of them; its slot count is the smallest power of two
// at least 1.5× that, so it is never more than two-thirds full (62.5 %
// at the default sizes) and every probe run ends at an empty slot.
type sketch struct {
	words  []uint64 // nibble-packed counters; len = counters/16
	mask   uint64   // counters - 1 (counters is a power of two)
	door   []uint16 // doorkeeper fingerprints, 0 = empty slot; nil until the first touch
	dmask  uint64   // door slots - 1
	events int      // touches counted toward the next aging reset
	sample int      // the reset fires at events == sample; a period is sample/2
	resets uint64   // lifetime aging resets (Stats.SketchResets)
}

// seeds de-correlate the 4 probe positions derived from one key hash.
// Arbitrary odd 64-bit constants (golden-ratio family).
var sketchSeeds = [4]uint64{
	0x9e3779b97f4a7c15,
	0xc2b2ae3d27d4eb4f,
	0x165667b19e3779f9,
	0x27d4eb2f165667c5,
}

// mix64 is the splitmix64 finalizer — cheap avalanche so probe
// indices use all bits of the FNV-1a key hash.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (k *sketch) init(capacity int) {
	// 16 counters (one packed word) per cache entry, matching
	// Caffeine's table sizing: 4 probes land in 16× the entry count,
	// so two resident keys rarely share even one nibble.
	counters := 1024
	for counters < 16*capacity {
		counters <<= 1
	}
	k.words = make([]uint64, counters/16)
	k.mask = uint64(counters - 1)
	k.sample = sampleFactor * capacity
	if k.sample < 64 {
		k.sample = 64
	}
	// Every period, the first included, is sample/2 touches.
	k.events = k.sample / 2
	// Doorkeeper: at most sample/2 fingerprints per period. A 512-entry
	// shard (the default 8,192-entry cache over 16 shards) gets 4,096
	// slots, 8 KB. doorSet allocates them on the shard's first touch:
	// a booting nutriserve's heap sits just under the runtime's first
	// GC trigger, and 32 doors allocated at construction started a GC
	// cycle during or just after boot (DESIGN.md §15).
	slots := 64
	for slots < k.sample/2*3/2 {
		slots <<= 1
	}
	k.dmask = uint64(slots - 1)
}

// touch records one access of key hash h: first occurrence sets the
// doorkeeper, subsequent occurrences bump the 4 count-min nibbles.
// Runs the aging reset when the sample period elapses.
func (k *sketch) touch(h uint64) {
	if !k.doorSet(h) {
		for i := range sketchSeeds {
			idx := mix64(h^sketchSeeds[i]) & k.mask
			word := idx >> 4
			shift := (idx & 15) << 2
			if (k.words[word]>>shift)&0xf < 15 {
				k.words[word] += 1 << shift
			}
		}
	}
	k.events++
	if k.events >= k.sample {
		k.age()
	}
}

// estimate returns the full frequency estimate for key hash h:
// min-nibble plus the doorkeeper's one absorbed occurrence.
func (k *sketch) estimate(h uint64) uint64 {
	min := k.estimateSketch(h)
	if k.doorContains(h) {
		min++
	}
	return min
}

// estimateSketch is estimate without the doorkeeper bonus — the
// count of occurrences past the first this aging period.
func (k *sketch) estimateSketch(h uint64) uint64 {
	min := uint64(15)
	for i := range sketchSeeds {
		idx := mix64(h^sketchSeeds[i]) & k.mask
		n := (k.words[idx>>4] >> ((idx & 15) << 2)) & 0xf
		if n < min {
			min = n
		}
	}
	return min
}

// doorSlot returns h's home slot and nonzero fingerprint: the low bits
// of its remixed hash pick the slot, the top 16 the fingerprint, so
// two keys are confused only if they agree on both.
func (k *sketch) doorSlot(h uint64) (uint64, uint16) {
	m := mix64(h)
	fp := uint16(m >> 48)
	if fp == 0 {
		fp = 1
	}
	return m & k.dmask, fp
}

// doorSet adds h to the doorkeeper, reporting whether it was absent
// (true: this is the key's first occurrence this aging period).
func (k *sketch) doorSet(h uint64) bool {
	if k.door == nil {
		k.door = make([]uint16, k.dmask+1)
	}
	i, fp := k.doorSlot(h)
	for {
		switch k.door[i] {
		case fp:
			return false
		case 0:
			k.door[i] = fp
			return true
		}
		i = (i + 1) & k.dmask
	}
}

func (k *sketch) doorContains(h uint64) bool {
	if k.door == nil {
		return false
	}
	i, fp := k.doorSlot(h)
	for {
		switch k.door[i] {
		case fp:
			return true
		case 0:
			return false
		}
		i = (i + 1) & k.dmask
	}
}

// age halves every counter (nibble-parallel shift: the 0x7777… mask
// clears the bit each nibble's neighbor shifted in) and clears the
// doorkeeper, so frequency estimates decay exponentially with
// traffic. Consistent with halving the counts, the event budget is
// halved rather than zeroed, back to sample/2 — where init starts it.
func (k *sketch) age() {
	for i := range k.words {
		k.words[i] = (k.words[i] >> 1) & 0x7777777777777777
	}
	clear(k.door)
	k.events >>= 1
	k.resets++
}
