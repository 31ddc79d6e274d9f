// Package memo provides a sharded, bounded, LRU-evicting memoization
// cache for the estimation pipeline's hot lookups. Production recipe
// traffic is heavily repetitive — "salt", "olive oil" and "butter"
// appear in nearly every recipe — so memoizing the phrase→profile and
// query→match functions turns the common case into a map hit instead of
// a full Modified-Jaccard scan (§II-B).
//
// The cache is safe for concurrent use: keys are hashed (FNV-1a) onto
// independently locked, cache-line-padded shards so N workers rarely
// contend on the same mutex — and never false-share adjacent shards'
// state. The hit/miss/eviction counters live inside the shard they
// describe and are updated as plain fields under the shard lock the hot
// path already holds; Stats aggregates them across shards on read. That
// removes the per-lookup atomic increments on shared cache lines the
// previous design paid — under a multi-core worker pool those three
// shared counters were the only memory every worker wrote on every
// phrase.
//
// Stored values are immutable. The by-value methods copy a value out
// under the shard lock; GetBytesHashRef hands out a stable *V into the
// cache's own entry, so a caller can read a large value after the lock
// is released without copying it out first.
// Once a reference to an entry has been handed out, the entry's value
// is never written again: refreshing its key swaps in a new entry, and
// eviction, rejection and Purge only unlink it. A reference therefore
// reads the value it was handed out with for as long as it is held.
// Callers must not write through one.
//
// Shard ownership: the shard index of a key is a pure function of its
// bytes (ShardIndex of Hash), stable for the cache's lifetime.
//
// Memoization here can never change results: both memoized functions
// are pure (a fixed database, matcher configuration, and frozen unit
// statistics fully determine the output), so a cache hit is byte-for-
// byte identical to recomputation. Callers that mutate the underlying
// state (core.Estimator.ObserveUnits) must Purge.
//
// Eviction policy: the cache runs either plain LRU (PolicyLRU, the
// zero value — what New and NewSharded build) or a W-TinyLFU-style
// admission policy (PolicyTinyLFU, via NewPolicy): a small window-LRU
// in front of a frequency-gated main segment, with a per-shard 4-bit
// count-min sketch + fingerprint doorkeeper estimating each key's
// access frequency. A store of a key the shard has not seen earlier in
// the current aging period is refused: a key enters the window only on
// its second sighting, so a miss that is never repeated allocates no
// key and no entry. A key evicted from the window is admitted to the
// main segment only if it is estimated more frequent than the main
// segment's eviction victim. Both a refused store and a lost duel are
// rejections (Stats.Rejections). That keeps one-hit wonders — a cold
// bulk scan's keys — out of the cache entirely, and away from the hot
// head of a skewed workload. Both policies share the same map, entry,
// counter and generation machinery, so which policy runs never
// changes what values are returned, only which keys survive. See
// DESIGN.md §15 and tinylfu.go.
package memo

import (
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// DefaultShards is the shard count used by New. 16 keeps per-shard
// mutex contention negligible for worker pools up to a few dozen
// goroutines while wasting little memory on tiny caches.
const DefaultShards = 16

// Stats is a point-in-time snapshot of the cache counters and shape.
// The struct marshals directly to JSON — it is the wire form the
// serving layer's GET /v1/stats exposes.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Rejections counts keys TinyLFU admission turned away (always 0
	// under PolicyLRU): stores refused because the key was on its first
	// sighting this aging period, which leave no entry, and
	// window-overflow candidates dropped instead of admitted to the
	// main segment. Every store of an absent key ends in exactly one of
	// {resident entry, eviction, rejection}, so insertions == Entries +
	// Evictions + Rejections at any quiescent point.
	Rejections uint64 `json:"rejections"`
	// Admissions counts window-overflow candidates that won the
	// frequency duel (or found the main segment not yet full) and
	// moved window → main (always 0 under PolicyLRU).
	Admissions uint64 `json:"admissions"`
	// SketchResets counts frequency-sketch aging events (all counters
	// halved, doorkeeper cleared) across shards.
	SketchResets uint64 `json:"sketch_resets"`
	Entries      int    `json:"entries"`  // current cached entries across all shards
	Capacity     int    `json:"capacity"` // total capacity (0: cache stores nothing)
	Shards       int    `json:"shards"`   // shard count (power of two)
	Policy       string `json:"policy"`   // eviction policy: "lru" or "tinylfu"
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a sharded, bounded LRU map from string keys to V.
// The zero value is not usable; construct with New or NewSharded.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint64 // len(shards) - 1; shard count is a power of two
	policy Policy

	// gen is the purge generation: bumped by Purge BEFORE any shard is
	// cleared. A writer that snapshots Gen before computing a value and
	// stores with PutHashGen can never resurrect a pre-purge value past
	// the purge — see PutHashGen for the ordering argument.
	gen atomic.Uint64
}

// entry is an intrusive doubly-linked LRU list node. head is
// most-recently used, tail is next to evict. Under PolicyTinyLFU an
// entry lives on exactly one of the shard's two lists (window or
// main, per seg) and carries its key hash so the admission duel can
// query the frequency sketch without rehashing the key.
type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
	h          uint64
	seg        uint8 // segMain (also all LRU entries) or segWindow
	// shared is set once a reference to val has been handed out; from
	// then on val is never written, and a refresh replaces the entry.
	shared bool
}

const (
	segMain   = 0 // main segment list (head/tail); every entry under PolicyLRU
	segWindow = 1 // window segment list (whead/wtail); PolicyTinyLFU only
)

type shard[V any] struct {
	mu         sync.Mutex
	capacity   int
	m          map[string]*entry[V]
	head, tail *entry[V] // main-segment LRU list (the only list under PolicyLRU)

	// PolicyTinyLFU state. The window list (whead/wtail) holds the
	// newest windowCap insertions; overflow from it must win the
	// admission duel against the main tail to enter the main list.
	// windowCap + mainCap == capacity; all zero under PolicyLRU.
	policy       Policy
	whead, wtail *entry[V]
	windowLen    int
	windowCap    int
	mainLen      int
	mainCap      int
	sk           sketch

	// Per-shard counters, updated under mu (no atomics: the lock is
	// already held at every update site). Each shard's counters share
	// its cache lines, not its neighbors' — see the padding below.
	hits       uint64
	misses     uint64
	evictions  uint64
	rejections uint64
	admissions uint64

	// Pad shards apart so two workers hammering adjacent shards never
	// false-share a line. One full line of slack keeps the next
	// shard's mutex off this shard's hot counters.
	_ [64]byte
}

// New builds a cache holding at most capacity entries across
// DefaultShards shards. capacity <= 0 yields a cache that stores
// nothing (every Get misses), which callers may use as a cheap
// "disabled" mode.
func New[V any](capacity int) *Cache[V] {
	return NewSharded[V](capacity, DefaultShards)
}

// NewSharded builds a cache with an explicit shard count. The count is
// rounded up to a power of two; each shard holds capacity/shards
// entries (minimum 1 per shard when capacity > 0, so the effective
// capacity is at least the shard count).
func NewSharded[V any](capacity, shards int) *Cache[V] {
	return NewPolicy[V](capacity, shards, PolicyLRU)
}

// NewPolicy builds a cache with an explicit shard count and eviction
// policy. Shard count and capacity behave exactly as in NewSharded;
// the policy only decides which keys survive eviction pressure, never
// what values lookups return.
func NewPolicy[V any](capacity, shards int, policy Policy) *Cache[V] {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := 0
	if capacity > 0 {
		perShard = (capacity + n - 1) / n
	}
	c := &Cache[V]{shards: make([]shard[V], n), mask: uint64(n - 1), policy: policy}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = perShard
		s.m = make(map[string]*entry[V])
		s.policy = policy
		if policy == PolicyTinyLFU && perShard > 0 {
			s.initTinyLFU(perShard)
		}
	}
	return c
}

// Policy returns the eviction policy the cache was built with.
func (c *Cache[V]) Policy() Policy { return c.policy }

// HashString is the 64-bit FNV-1a hash of a string key — the hash that
// selects a key's shard. Inlined (no interface, no seed) to keep
// Get/Put allocation-free.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Hash is HashString over a byte spelling; same algorithm, so a string
// key and its byte spelling always land on the same shard. Exported so
// callers (core's phrase and match caches) hash a key once for both its
// probe and its store.
func Hash(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// ShardCount returns the number of shards (a power of two).
func (c *Cache[V]) ShardCount() int { return len(c.shards) }

// ShardIndex maps a key hash (Hash/HashString of the key) to the index
// of the shard that owns it — a pure function of the key bytes, stable
// for the cache's lifetime.
func (c *Cache[V]) ShardIndex(h uint64) int { return int(h & c.mask) }

// Get returns the cached value for key and marks it most-recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	return c.GetHash(HashString(key), key)
}

// GetHash is Get with the key's hash (HashString(key)) precomputed, so
// callers that already hashed the key for shard partitioning don't pay
// for a second pass over its bytes.
func (c *Cache[V]) GetHash(h uint64, key string) (V, bool) {
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	if s.policy == PolicyTinyLFU && s.capacity > 0 {
		s.sk.touch(h)
	}
	e, ok := s.m[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		var zero V
		return zero, false
	}
	s.touchEntry(e)
	// Copied under the lock: an entry no reference was handed out for
	// is refreshed in place.
	v := e.val
	s.hits++
	s.mu.Unlock()
	return v, true
}

// GetBytes is Get with the key spelled as bytes, so hot paths can probe
// with a scratch-assembled key without materializing a string.
// Identical hit/miss, LRU and counter behavior to Get(string(key)).
func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	return c.GetBytesHash(Hash(key), key)
}

// GetBytesHash is GetBytes with the key's hash (Hash(key)) precomputed.
// The key bytes are viewed as a string without copying: the lookup
// only reads them, and nothing retains them past the call.
func (c *Cache[V]) GetBytesHash(h uint64, key []byte) (V, bool) {
	return c.GetHash(h, unsafe.String(unsafe.SliceData(key), len(key)))
}

// GetBytesHashRef is GetBytesHash returning a reference to the stored
// value instead of a copy, or nil on a miss. The value behind it never
// changes: see the package comment. It is GetHash's lookup with a
// different ending, kept in one body because calls between generic
// methods are not inlined and this is the phrase cache's hit path.
func (c *Cache[V]) GetBytesHashRef(h uint64, key []byte) *V {
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	if s.policy == PolicyTinyLFU && s.capacity > 0 {
		s.sk.touch(h)
	}
	// The compiler does not copy key for a map index expression.
	e, ok := s.m[string(key)]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil
	}
	s.touchEntry(e)
	e.shared = true
	s.hits++
	s.mu.Unlock()
	return &e.val
}

// Put inserts or refreshes key, evicting the least-recently-used entry
// of its shard when the shard is full. On a zero-capacity cache Put is
// a no-op.
func (c *Cache[V]) Put(key string, val V) {
	c.PutHash(HashString(key), key, val)
}

// PutHash is Put with the key's hash (HashString(key)) precomputed. It
// is PutHashGen at the current generation: a store that races a Purge
// may drop, which is indistinguishable from landing just before it.
func (c *Cache[V]) PutHash(h uint64, key string, val V) {
	c.store(h, key, false, val, c.gen.Load())
}

// insert adds a new key under the shard lock, applying the shard's
// eviction policy when full (the new key stays resident: the policy
// evicts or rejects some other entry). The key must not already be
// present, and the shard keeps key: it must not alias caller memory.
func (s *shard[V]) insert(h uint64, key string, val V) {
	if s.policy == PolicyTinyLFU {
		s.insertTinyLFU(h, key, val)
		return
	}
	if len(s.m) >= s.capacity {
		old := s.tail
		s.unlink(old)
		delete(s.m, old.key)
		s.evictions++
	}
	e := &entry[V]{key: key, val: val, h: h}
	s.m[key] = e
	s.pushFront(e)
}

// Gen returns the current purge generation. Writers that compute
// values from purge-invalidated state (core's estimation results
// depend on the live DB snapshot and unit statistics) snapshot this
// BEFORE reading that state, then store with PutHashGen — the pair
// makes "compute under old state, store after the purge" impossible.
func (c *Cache[V]) Gen() uint64 { return c.gen.Load() }

// PutHashGen is PutHash with the key spelled as bytes (Hash(key)
// precomputed), conditional on the purge generation: the store is
// dropped when gen no longer matches. The check runs under the shard
// lock, so exactly two interleavings with a concurrent Purge exist —
// the put observes the bumped generation and drops (Purge bumps before
// clearing), or the put lands before the purge acquires this shard's
// lock and is cleared by it. A stale value therefore never outlives
// the Purge that invalidated it. The key bytes are copied only when
// the store creates an entry; the caller may reuse them after the call.
func (c *Cache[V]) PutHashGen(h uint64, key []byte, val V, gen uint64) {
	c.store(h, unsafe.String(unsafe.SliceData(key), len(key)), true, val, gen)
}

// store is the one write path behind every Put variant. A resident key
// is refreshed in place unless a reference to its value is out, in
// which case a new entry takes its place. An absent key is refused
// under PolicyTinyLFU while its sketch count is 0 — the lookup that
// missed it was its first sighting this aging period — and otherwise
// inserted under the shard's eviction policy. borrowed reports that
// key aliases the caller's bytes, so an insert stores a copy.
func (c *Cache[V]) store(h uint64, key string, borrowed bool, val V, gen uint64) {
	s := &c.shards[h&c.mask]
	if s.capacity <= 0 {
		return
	}
	s.mu.Lock()
	if c.gen.Load() != gen {
		s.mu.Unlock()
		return
	}
	e, ok := s.m[key]
	switch {
	case !ok && s.policy == PolicyTinyLFU && s.sk.estimateSketch(h) == 0:
		s.rejections++
	case !ok:
		if borrowed {
			key = strings.Clone(key)
		}
		s.insert(h, key, val)
	case e.shared:
		s.replace(e, val)
	default:
		e.val = val
		s.touchEntry(e)
	}
	s.mu.Unlock()
}

// replace refreshes the shared entry e by swapping a new entry holding
// val into its map slot, at the front of e's segment. e leaves the
// cache exactly as an evicted entry does — unlinked, its value intact
// for the references already handed out.
func (s *shard[V]) replace(e *entry[V], val V) {
	n := &entry[V]{key: e.key, val: val, h: e.h, seg: e.seg}
	if e.seg == segWindow {
		s.wUnlink(e)
		s.wPushFront(n)
	} else {
		s.unlink(e)
		s.pushFront(n)
	}
	s.m[e.key] = n
}

// Len returns the current entry count across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Purge drops every cached entry. Counters are preserved; Stats after a
// Purge still reports lifetime hits/misses/evictions. The generation
// bump strictly precedes the first shard clear — the ordering
// PutHashGen's no-resurrection guarantee rests on.
//
// The frequency sketch and doorkeeper deliberately survive Purge:
// they estimate the workload's access pattern, which a database swap
// does not change — only the cached values are stale. Keeping the
// sketch means the hot head re-warms through admission immediately
// after a reload instead of fighting one-hit wonders from scratch.
//
// Purged entries are unlinked from each other, as evicted ones are, so
// a reference that outlives the Purge keeps only its own entry alive,
// not the rest of its shard's former lists.
func (c *Cache[V]) Purge() {
	c.gen.Add(1)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[string]*entry[V])
		detach(s.head)
		detach(s.whead)
		s.head, s.tail = nil, nil
		s.whead, s.wtail = nil, nil
		s.windowLen, s.mainLen = 0, 0
		s.mu.Unlock()
	}
}

// detach clears the links of every entry on the list starting at e.
func detach[V any](e *entry[V]) {
	for e != nil {
		next := e.next
		e.prev, e.next = nil, nil
		e = next
	}
}

// Capacity returns the total entry capacity across all shards (the
// per-shard capacity times the shard count, which is what eviction
// actually enforces — it may exceed the capacity passed to New due to
// per-shard rounding).
func (c *Cache[V]) Capacity() int {
	return c.shards[0].capacity * len(c.shards)
}

// Stats aggregates the per-shard counters — the "batched flush" of the
// sharded design: no aggregate is maintained per lookup, the totals are
// assembled only when somebody asks. The snapshot is not atomic across
// shards under concurrent load, which is fine for monitoring; each
// per-shard counter is monotonic, so so is every aggregate.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Capacity: c.Capacity(),
		Shards:   len(c.shards),
		Policy:   c.policy.String(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Rejections += s.rejections
		st.Admissions += s.admissions
		st.SketchResets += s.sk.resets
		st.Entries += len(s.m)
		s.mu.Unlock()
	}
	return st
}

// --- intrusive LRU list (per shard, under the shard mutex) ---

func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// touchEntry marks e most-recently used within its own segment. Under
// PolicyLRU every entry is segMain, so this is exactly moveToFront.
func (s *shard[V]) touchEntry(e *entry[V]) {
	if e.seg == segWindow {
		s.wMoveToFront(e)
	} else {
		s.moveToFront(e)
	}
}
