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
// path already holds; Stats aggregates them across shards on read.
//
// A shard is one LRU list with one lookup (GetBytesHashRef) and one
// store (PutHashGen). A lookup hands out a stable *V into the cache's
// own entry, so a caller can read a large value after the lock is
// released without copying it out first. Once a reference to an entry
// has been handed out, the entry's value is never written again:
// refreshing its key swaps in a new entry, and eviction and Purge only
// unlink it. A reference therefore reads the value it was handed out
// with for as long as it is held. Callers must not write through one.
//
// Memoization here can never change results: both memoized functions
// are pure (a fixed database, matcher configuration, and frozen unit
// statistics fully determine the output), so a cache hit is byte-for-
// byte identical to recomputation. Callers that mutate the underlying
// state (core.Estimator.ObserveUnits) must Purge.
//
// Admission: PolicyLRU stores every miss. PolicyTinyLFU puts a
// doorkeeper (package admit) in front of the list: a store of an absent
// key lands only on the key's second lookup in an aging period, so a
// miss that is never repeated allocates no key and no entry, and a cold
// bulk scan cannot evict the hot head of a skewed workload. A refused store
// counts as a rejection (Stats.Rejections). Which policy runs never
// changes what a lookup returns, only which keys are resident. See
// DESIGN.md §15.
package memo

import (
	"sync"
	"sync/atomic"

	"nutriprofile/internal/admit"
)

// DefaultShards is the shard count production caches use. 16 keeps
// per-shard mutex contention negligible for worker pools up to a few
// dozen goroutines while wasting little memory on tiny caches.
const DefaultShards = 16

// Stats is a point-in-time snapshot of the cache counters and shape.
// The struct marshals directly to JSON — it is the wire form the
// serving layer's GET /v1/stats exposes.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Rejections counts stores the doorkeeper refused (always 0 under
	// PolicyLRU): an absent key on its first sighting this aging
	// period, which leaves no entry. Every store of an absent key ends
	// in exactly one of {resident entry, eviction, rejection}, so
	// insertions == Entries + Evictions + Rejections at any quiescent
	// point.
	Rejections uint64 `json:"rejections"`
	Entries    int    `json:"entries"`  // current cached entries across all shards
	Capacity   int    `json:"capacity"` // total capacity (0: cache stores nothing)
	Shards     int    `json:"shards"`   // shard count (power of two)
	Policy     string `json:"policy"`   // admission policy: "lru" or "tinylfu"
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a sharded, bounded LRU map from byte-string keys to V.
// The zero value is not usable; construct with NewPolicy.
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
// most-recently used, tail is next to evict.
type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
	// shared is set once a reference to val has been handed out; from
	// then on val is never written, and a refresh replaces the entry.
	shared bool
}

type shard[V any] struct {
	mu         sync.Mutex
	capacity   int
	m          map[string]*entry[V]
	head, tail *entry[V]
	door       admit.Door // PolicyTinyLFU only; unsized (Period 0) otherwise

	// Per-shard counters, updated under mu (no atomics: the lock is
	// already held at every update site). Each shard's counters share
	// its cache lines, not its neighbors' — see the padding below.
	hits       uint64
	misses     uint64
	evictions  uint64
	rejections uint64

	// Pad shards apart so two workers hammering adjacent shards never
	// false-share a line. One full line of slack keeps the next
	// shard's mutex off this shard's hot counters.
	_ [64]byte
}

// NewPolicy builds a cache holding at most capacity entries over the
// given number of shards, under the given admission policy. The shard
// count is rounded up to a power of two; each shard holds
// capacity/shards entries (minimum 1 per shard when capacity > 0, so
// the effective capacity is at least the shard count). capacity <= 0
// yields a cache that stores nothing (every lookup misses).
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
		if policy == PolicyTinyLFU && perShard > 0 {
			s.door.Init(perShard)
		}
	}
	return c
}

// Hash is the 64-bit FNV-1a hash of a key. Its low bits select the
// key's shard, so a key's shard is a pure function of its bytes.
// Callers (core's phrase and match caches) hash a key once for both its
// lookup and its store.
func Hash(b []byte) uint64 { return admit.Hash(b) }

// GetBytesHashRef looks key up (h is Hash(key)), marks it most-recently
// used on a hit and returns a reference to its stored value, or nil on
// a miss. The value behind the reference never changes: see the package
// comment. Under PolicyTinyLFU every lookup, hit or miss, marks the key
// in the shard's doorkeeper. The key bytes are only read.
func (c *Cache[V]) GetBytesHashRef(h uint64, key []byte) *V {
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	if s.door.Period() > 0 {
		s.door.Mark(h)
	}
	// The compiler does not copy key for a map index expression.
	e, ok := s.m[string(key)]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil
	}
	s.moveToFront(e)
	e.shared = true
	s.hits++
	s.mu.Unlock()
	return &e.val
}

// Gen returns the current purge generation. Writers that compute
// values from purge-invalidated state (core's estimation results
// depend on the live DB snapshot and unit statistics) snapshot this
// BEFORE reading that state, then store with PutHashGen — the pair
// makes "compute under old state, store after the purge" impossible.
func (c *Cache[V]) Gen() uint64 { return c.gen.Load() }

// PutHashGen stores val under key (h is Hash(key)), conditional on the
// purge generation: the store is dropped when gen no longer matches.
// The check runs under the shard lock, so exactly two interleavings
// with a concurrent Purge exist — the put observes the bumped
// generation and drops (Purge bumps before clearing), or the put lands
// before the purge acquires this shard's lock and is cleared by it. A
// stale value therefore never outlives the Purge that invalidated it.
//
// A resident key is refreshed in place unless a reference to its value
// is out, in which case a new entry takes its place. An absent key is
// refused under PolicyTinyLFU unless the doorkeeper has seen it looked
// up twice this period; otherwise it is inserted, evicting the shard's
// least-recently-used entry when the shard is full. The key bytes are
// copied only when the store creates an entry; the caller may reuse
// them after the call.
func (c *Cache[V]) PutHashGen(h uint64, key []byte, val V, gen uint64) {
	s := &c.shards[h&c.mask]
	if s.capacity <= 0 {
		return
	}
	s.mu.Lock()
	if c.gen.Load() != gen {
		s.mu.Unlock()
		return
	}
	e, ok := s.m[string(key)]
	switch {
	case !ok && s.door.Period() > 0 && !s.door.Seen(h):
		s.rejections++
	case !ok:
		if len(s.m) >= s.capacity {
			old := s.tail
			s.unlink(old)
			delete(s.m, old.key)
			s.evictions++
		}
		e = &entry[V]{key: string(key), val: val}
		s.m[e.key] = e
		s.pushFront(e)
	case e.shared:
		s.replace(e, val)
	default:
		e.val = val
		s.moveToFront(e)
	}
	s.mu.Unlock()
}

// replace refreshes the shared entry e by swapping a new entry holding
// val into its map slot, at the front of the list. e leaves the cache
// exactly as an evicted entry does — unlinked, its value intact for the
// references already handed out.
func (s *shard[V]) replace(e *entry[V], val V) {
	n := &entry[V]{key: e.key, val: val}
	s.unlink(e)
	s.pushFront(n)
	s.m[e.key] = n
}

// Purge drops every cached entry. Counters are preserved; Stats after a
// Purge still reports lifetime hits/misses/evictions. The generation
// bump strictly precedes the first shard clear — the ordering
// PutHashGen's no-resurrection guarantee rests on.
//
// The doorkeeper deliberately survives Purge: it records the workload's
// access pattern, which a database swap does not change — only the
// cached values are stale. Keeping it means the hot head re-warms on
// its next miss after a reload instead of waiting for a second one.
//
// Purged entries are unlinked from each other, as evicted ones are, so
// a reference that outlives the Purge keeps only its own entry alive,
// not the rest of its shard's former list.
func (c *Cache[V]) Purge() {
	c.gen.Add(1)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[string]*entry[V])
		for e := s.head; e != nil; {
			next := e.next
			e.prev, e.next = nil, nil
			e = next
		}
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// Stats aggregates the per-shard counters — the "batched flush" of the
// sharded design: no aggregate is maintained per lookup, the totals are
// assembled only when somebody asks. The snapshot is not atomic across
// shards under concurrent load, which is fine for monitoring; each
// per-shard counter is monotonic, so so is every aggregate. Capacity is
// the per-shard capacity times the shard count, what eviction enforces.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Capacity: c.shards[0].capacity * len(c.shards),
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
