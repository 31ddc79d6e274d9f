package memo

import (
	"fmt"
	"sync"
	"testing"
)

func TestPolicyParseString(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = (%v, %v), want (%v, nil)", p.String(), got, err, p)
		}
	}
	if _, err := ParsePolicy("arc"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
	if p := NewPolicy[int](8, 2, Policy(0)).Stats().Policy; p != "lru" {
		t.Fatalf("the zero Policy is %q, want lru", p)
	}
	if p := NewPolicy[int](8, 2, PolicyTinyLFU).Stats().Policy; p != "tinylfu" {
		t.Fatalf("policy not threaded: %q", p)
	}
}

// TestTinyLFUGetPut: plain value semantics must be identical to LRU —
// admission decides which keys are resident, never what a resident
// key returns. A key's first miss-then-store is refused, leaving a
// rejection and no entry; its second lands.
func TestTinyLFUGetPut(t *testing.T) {
	c := NewPolicy[int](64, 2, PolicyTinyLFU)
	for round := 0; round < 2; round++ {
		for i := 0; i < 32; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, ok := get(c, k); ok {
				t.Fatalf("round %d: get(%s) hit before any store landed", round, k)
			}
			put(c, k, i)
		}
		if st := c.Stats(); round == 0 && (st.Entries != 0 || st.Rejections != 32) {
			t.Fatalf("first sightings: Entries = %d, Rejections = %d; want 0, 32", st.Entries, st.Rejections)
		}
	}
	for i := 0; i < 32; i++ {
		if v, ok := get(c, fmt.Sprintf("k%d", i)); !ok || v != i {
			t.Fatalf("get(k%d) = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	put(c, "k3", 333) // a refresh of a resident key always lands
	if v, ok := get(c, "k3"); !ok || v != 333 {
		t.Fatalf("updated get(k3) = (%d, %v), want (333, true)", v, ok)
	}
	if length(c) != 32 {
		t.Fatalf("length = %d, want 32", length(c))
	}
}

// TestTinyLFUCapacityBound: the doorkeeper must leave LRU's bound
// intact for any capacity, including 1-entry shards. Each key is
// stored as the estimator stores it, so it lands on its second
// sighting and the cache fills.
func TestTinyLFUCapacityBound(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 100, 512} {
		c := NewPolicy[int](capacity, 1, PolicyTinyLFU)
		for i := 0; i < 4*capacity+16; i++ {
			putSeen(c, fmt.Sprintf("k%d", i), i)
		}
		st := c.Stats()
		if st.Entries != st.Capacity {
			t.Fatalf("capacity %d: %d entries resident, want the cache full at %d", capacity, st.Entries, st.Capacity)
		}
		// Every miss was followed by a store of the absent key.
		if got := uint64(st.Entries) + st.Evictions + st.Rejections; got != st.Misses {
			t.Fatalf("capacity %d: entries(%d)+evictions(%d)+rejections(%d) = %d, want %d inserts",
				capacity, st.Entries, st.Evictions, st.Rejections, got, st.Misses)
		}
		verifyShardStructure(t, c)
	}
}

// TestTinyLFUScanResistance is the policy's reason to exist: a hot
// working set that fits the cache, plus a long scan of one-hit
// wonders sweeping through — a cold /v1/batch run landing on a warm
// interactive server. The hot keys keep being accessed (round-robin,
// 1 per 4 scan keys), but between two touches of the same hot key the
// interleaved traffic pushes ~2× the cache capacity of distinct keys,
// so LRU evicts the hot set over and over; the doorkeeper refuses
// every scan key, seen once, and the hot set stays resident.
func TestTinyLFUScanResistance(t *testing.T) {
	const capacity, hot, scan = 128, 64, 8192
	run := func(p Policy) (survived int) {
		c := NewPolicy[int](capacity, 1, p)
		access := func(k string, v int) {
			if _, ok := get(c, k); !ok {
				put(c, k, v)
			}
		}
		// Warm the hot set.
		for round := 0; round < 8; round++ {
			for i := 0; i < hot; i++ {
				access(fmt.Sprintf("hot-%d", i), i)
			}
		}
		// Scan of distinct keys with hot traffic mixed 1:4.
		for i := 0; i < scan; i++ {
			access(fmt.Sprintf("scan-%d", i), i)
			if i%4 == 0 {
				access(fmt.Sprintf("hot-%d", (i/4)%hot), i)
			}
		}
		for i := 0; i < hot; i++ {
			if _, ok := get(c, fmt.Sprintf("hot-%d", i)); ok {
				survived++
			}
		}
		return survived
	}
	lru, tlfu := run(PolicyLRU), run(PolicyTinyLFU)
	t.Logf("hot entries surviving the scan: lru=%d/%d tinylfu=%d/%d", lru, hot, tlfu, hot)
	// LRU retains only the accidental tail of the run (the hot keys
	// re-inserted within the last ~capacity insertions), well under
	// half the set; TinyLFU must hold nearly all of it.
	if lru > hot/2 {
		t.Fatalf("LRU preserved %d/%d hot entries — scan not adversarial enough", lru, hot)
	}
	if tlfu < hot*9/10 {
		t.Fatalf("TinyLFU preserved only %d/%d hot entries through the scan (LRU: %d)", tlfu, hot, lru)
	}
	if tlfu < 2*lru {
		t.Fatalf("TinyLFU (%d) must out-retain LRU (%d) decisively", tlfu, lru)
	}
}

// TestTinyLFUAdmissionCounters pins the full counter algebra on a
// deterministic single-shard trace that overflows the cache: every
// store of an absent key ends in exactly one of entry, eviction or
// rejection.
func TestTinyLFUAdmissionCounters(t *testing.T) {
	c := NewPolicy[int](64, 1, PolicyTinyLFU)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("k%d", i%200)
		if _, ok := get(c, k); !ok {
			put(c, k, i)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded on an overflowing workload")
	}
	if st.Rejections == 0 {
		t.Fatal("no rejections recorded on an overflowing workload")
	}
	if st.Hits+st.Misses != 1000 {
		t.Fatalf("hits(%d)+misses(%d) != 1000 lookups", st.Hits, st.Misses)
	}
	inserts := st.Misses // every miss was followed by a store of a new key
	if got := uint64(st.Entries) + st.Evictions + st.Rejections; got != inserts {
		t.Fatalf("entries(%d)+evictions(%d)+rejections(%d) = %d, want %d",
			st.Entries, st.Evictions, st.Rejections, got, inserts)
	}
}

// TestLRURejectionsAlwaysZero: the rejection counter must stay silent
// under PolicyLRU, which stores every miss.
func TestLRURejectionsAlwaysZero(t *testing.T) {
	c := newLRU[int](16)
	for i := 0; i < 500; i++ {
		put(c, fmt.Sprintf("k%d", i), i)
		get(c, fmt.Sprintf("k%d", i/2))
	}
	st := c.Stats()
	if st.Rejections != 0 {
		t.Fatalf("LRU cache reported rejections: %+v", st)
	}
	if st.Policy != "lru" {
		t.Fatalf("Policy = %q, want lru", st.Policy)
	}
}

// TestTinyLFUPurge: Purge must clear the entries and the list
// (re-inserts work, capacity still enforced) while the doorkeeper
// survives — who asked for what is workload signal, not value state.
func TestTinyLFUPurge(t *testing.T) {
	c := NewPolicy[int](64, 1, PolicyTinyLFU)
	for round := 0; round < 4; round++ {
		for i := 0; i < 32; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, ok := get(c, k); !ok {
				put(c, k, i)
			}
		}
	}
	pre := c.Stats()
	c.Purge()
	if length(c) != 0 {
		t.Fatalf("length = %d after Purge", length(c))
	}
	// k1 was seen again before the purge: its store lands without a
	// new lookup.
	put(c, "k1", 11)
	if v, ok := get(c, "k1"); !ok || v != 11 {
		t.Fatalf("get(k1) = (%d, %v) after a post-purge store; want (11, true): the door did not survive", v, ok)
	}
	if _, ok := get(c, "k0"); ok {
		t.Fatal("purged entry still resident")
	}
	// Refill past capacity: the list was reset, so this must neither
	// panic nor leak entries beyond the bound.
	for i := 0; i < 300; i++ {
		putSeen(c, fmt.Sprintf("r%d", i), i)
	}
	if length(c) > capacityOf(c) {
		t.Fatalf("length %d exceeds capacity %d after purge+refill", length(c), capacityOf(c))
	}
	verifyShardStructure(t, c)
	if post := c.Stats(); post.Hits < pre.Hits {
		t.Fatal("lifetime counters reset by Purge")
	}
}

// TestTinyLFUGenPut: PutHashGen's no-resurrection contract is policy-
// independent — a store with a stale generation must be dropped, even
// for a key on its second sighting, which admission would store.
func TestTinyLFUGenPut(t *testing.T) {
	c := NewPolicy[int](64, 1, PolicyTinyLFU)
	gen := c.Gen()
	for _, k := range []string{"stale", "fresh"} {
		get(c, k)
		get(c, k) // the second sighting: a store would now land
	}
	c.Purge()
	c.PutHashGen(hashString("stale"), []byte("stale"), 1, gen)
	if st := c.Stats(); st.Entries != 0 || st.Rejections != 0 {
		t.Fatalf("stale-generation store left %d entries, %d rejections; want it dropped before admission",
			st.Entries, st.Rejections)
	}
	if _, ok := get(c, "stale"); ok {
		t.Fatal("stale-generation store resurrected past Purge")
	}
	c.PutHashGen(hashString("fresh"), []byte("fresh"), 2, c.Gen())
	if v, ok := get(c, "fresh"); !ok || v != 2 {
		t.Fatal("current-generation store dropped")
	}
}

// verifyShardStructure walks every shard's list and reconciles it
// against the map: every listed entry is the one its key maps to, the
// list holds every mapped entry, links agree both ways, and the shard
// is within its capacity. Caller must guarantee quiescence.
func verifyShardStructure[V any](t testing.TB, c *Cache[V]) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := 0
		var prev *entry[V]
		for e := s.head; e != nil; e = e.next {
			if s.m[e.key] != e {
				t.Errorf("shard %d: listed entry %q is not the one its key maps to", i, e.key)
			}
			if e.prev != prev {
				t.Errorf("shard %d: entry %q links back to the wrong entry", i, e.key)
			}
			prev = e
			n++
		}
		if s.tail != prev {
			t.Errorf("shard %d: tail is not the list's last entry", i)
		}
		if n != len(s.m) || n > s.capacity {
			t.Errorf("shard %d: list holds %d entries, map %d, capacity %d", i, n, len(s.m), s.capacity)
		}
		s.mu.Unlock()
	}
}

// TestAdmissionAccountingStorm is the exactness gate under a
// concurrent get/put storm (run it with -race): every shard must
// reconcile exactly — stores routed to the shard equal its live
// entries plus evictions plus rejections, lookups equal hits plus
// misses, and the list matches the map and the capacity. Each key is
// looked up twice and then stored once, as a second miss is; keys are
// distinct per goroutine, so the per-shard store count is a pure
// function of the key set, computable outside the cache. Under TinyLFU
// a store lands unless another goroutine's lookups ended the door's
// period between the key's two lookups.
func TestAdmissionAccountingStorm(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
		t.Run(p.String(), func(t *testing.T) {
			const (
				goroutines = 8
				perG       = 2000
				capacity   = 64
				shards     = 4
			)
			c := NewPolicy[int](capacity, shards, p)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						key := fmt.Sprintf("g%d-%d", g, i)
						get(c, key) // miss: nothing stored it yet
						get(c, key) // miss, the key's second sighting
						put(c, key, i)
						get(c, fmt.Sprintf("other-%d-x", i)) // guaranteed miss
					}
				}(g)
			}
			wg.Wait()

			// Per-shard store counts, recomputed from the key set.
			inserts := make([]uint64, len(c.shards))
			for g := 0; g < goroutines; g++ {
				for i := 0; i < perG; i++ {
					inserts[shardIndex(c, hashString(fmt.Sprintf("g%d-%d", g, i)))]++
				}
			}
			for i := range c.shards {
				s := &c.shards[i]
				s.mu.Lock()
				got := uint64(len(s.m)) + s.evictions + s.rejections
				s.mu.Unlock()
				if got != inserts[i] {
					t.Errorf("shard %d: entries+evictions+rejections = %d, want %d inserts", i, got, inserts[i])
				}
			}
			verifyShardStructure(t, c)

			st := c.Stats()
			if lookups := uint64(3 * goroutines * perG); st.Hits+st.Misses != lookups {
				t.Errorf("hits(%d)+misses(%d) != %d lookups", st.Hits, st.Misses, lookups)
			}
			if st.Evictions == 0 {
				t.Errorf("no store landed past capacity: %+v", st)
			}
			if p == PolicyLRU && st.Rejections != 0 {
				t.Errorf("LRU rejected %d inserts", st.Rejections)
			}
		})
	}
}

// TestGetBytesHashProbeMisses pins the lookup's miss edges: absent
// keys, empty and nil spellings, probes against a zero-capacity cache,
// and hash/spelling mismatches must all count one miss and return nil
// — under both policies.
func TestGetBytesHashProbeMisses(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
		t.Run(p.String(), func(t *testing.T) {
			c := NewPolicy[int](64, 2, p)
			putSeen(c, "present", 7)
			base := c.Stats().Misses

			probes := 0
			probe := func(key []byte) {
				probes++
				if r := c.GetBytesHashRef(Hash(key), key); r != nil {
					t.Fatalf("GetBytesHashRef(%q) = %d, want a miss", key, *r)
				}
			}
			probe([]byte("absent"))
			probe([]byte{})
			probe(nil)
			probe([]byte("present\x00")) // near-miss spelling
			if st := c.Stats(); st.Misses != base+uint64(probes) {
				t.Fatalf("misses = %d after %d probe misses", st.Misses, probes)
			}
			// The hit side of the same lookup, for contrast.
			if r := c.GetBytesHashRef(Hash([]byte("present")), []byte("present")); r == nil || *r != 7 {
				t.Fatalf("GetBytesHashRef(present) = %v, want 7", r)
			}

			// A wrong hash routes to another shard and probes its map:
			// must miss, never panic, and count on the shard it landed
			// on. With 2 shards the +1 flips the shard bit.
			before := c.Stats().Misses
			if r := c.GetBytesHashRef(Hash([]byte("present"))+1, []byte("present")); r != nil {
				t.Fatal("wrong-hash probe hit")
			}
			if c.Stats().Misses != before+1 {
				t.Fatal("wrong-hash probe not counted as a miss")
			}

			// Zero-capacity cache: every probe is a clean miss.
			z := NewPolicy[int](0, 2, p)
			put(z, "x", 1)
			if r := z.GetBytesHashRef(Hash([]byte("x")), []byte("x")); r != nil {
				t.Fatal("zero-capacity cache hit")
			}
			if st := z.Stats(); st.Misses != 1 || st.Entries != 0 {
				t.Fatalf("zero-capacity stats %+v", st)
			}
		})
	}
}

// TestTinyLFUByteProbesBuildFrequency: byte-spelled lookups — every
// lookup the estimator makes — must feed the doorkeeper: one lookup
// leaves a store refused, and a second lets it land. A key never looked
// up is refused however often it is stored.
func TestTinyLFUByteProbesBuildFrequency(t *testing.T) {
	c := NewPolicy[int](64, 1, PolicyTinyLFU)
	key := []byte("repeat-offender")
	h := Hash(key)
	store := func(val int) bool {
		c.PutHashGen(h, key, val, c.Gen())
		_, ok := c.shards[0].m[string(key)]
		return ok
	}
	c.GetBytesHashRef(h, key)
	if store(1) {
		t.Fatal("a store after one lookup landed; want it refused")
	}
	c.GetBytesHashRef(h, key)
	if !store(2) {
		t.Fatal("a store after two lookups was refused")
	}
	if r := c.GetBytesHashRef(h, key); r == nil || *r != 2 {
		t.Fatalf("GetBytesHashRef = %v after the landed store, want 2", r)
	}
	cold := []byte("never-looked-up")
	for i := 0; i < 3; i++ {
		c.PutHashGen(Hash(cold), cold, i, c.Gen())
	}
	if st := c.Stats(); st.Entries != 1 || st.Rejections != 4 {
		t.Fatalf("entries %d, rejections %d; want 1 and 4 (one early store, three unseen)", st.Entries, st.Rejections)
	}
}

// TestWarmPathZeroAllocs pins the allocation-free warm path for both
// policies: a lookup hit, a lookup miss and a refresh of a resident
// key no reference was handed out for must not allocate — the
// doorkeeper is a fixed array and a probe run, never a heap object.
func TestWarmPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
		t.Run(p.String(), func(t *testing.T) {
			c := NewPolicy[int](256, 4, p)
			const n = 64
			var hits, misses, writes [n][]byte
			for i := 0; i < n; i++ {
				hits[i] = fmt.Appendf(nil, "warm-%d", i)
				misses[i] = fmt.Appendf(nil, "absent-%d", i)
				writes[i] = fmt.Appendf(nil, "write-%d", i)
				putSeen(c, string(hits[i]), i)
				// Two missed lookups and a store: resident, unshared.
				c.GetBytesHashRef(Hash(writes[i]), writes[i])
				c.GetBytesHashRef(Hash(writes[i]), writes[i])
				c.PutHashGen(Hash(writes[i]), writes[i], i, c.Gen())
			}
			i := 0
			run := func() {
				k := i % n
				c.GetBytesHashRef(Hash(hits[k]), hits[k])
				c.GetBytesHashRef(Hash(misses[k]), misses[k])
				c.PutHashGen(Hash(writes[k]), writes[k], i, c.Gen())
				i++
			}
			run() // warm
			if allocs := testing.AllocsPerRun(500, run); allocs != 0 {
				t.Fatalf("warm lookup/refresh path allocates %.1f/op under %v, want 0", allocs, p)
			}
			if st := c.Stats(); st.Entries != 2*n {
				t.Fatalf("%d entries resident, want %d: a warm store was refused", st.Entries, 2*n)
			}
		})
	}
}

// TestDoorAging: the door is cleared every period lookups, so a key
// looked up once before the clear is on its first sighting after it
// and its store is refused; a second lookup in the new period lets the
// store land. (package admit's TestDoorAging checks the door itself.)
func TestDoorAging(t *testing.T) {
	c := NewPolicy[int](64, 1, PolicyTinyLFU)
	period := c.shards[0].door.Period()
	get(c, "old")
	for i := 1; i < period; i++ {
		get(c, fmt.Sprintf("flood-%d", i))
	}
	get(c, "flood-last") // ends the period: the door is cleared first
	get(c, "old")        // a first sighting again
	put(c, "old", 1)
	if st := c.Stats(); st.Entries != 0 || st.Rejections != 1 {
		t.Fatalf("a key seen once per period was stored: %+v", st)
	}
	get(c, "old")
	put(c, "old", 2)
	if v, ok := get(c, "old"); !ok || v != 2 {
		t.Fatalf("get(old) = (%d, %v) after its second sighting in the period, want (2, true)", v, ok)
	}
}
