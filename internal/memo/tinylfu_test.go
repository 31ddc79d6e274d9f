package memo

import (
	"encoding/binary"
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
	if New[int](8).Policy() != PolicyLRU {
		t.Fatal("New must default to PolicyLRU")
	}
	c := NewPolicy[int](8, 2, PolicyTinyLFU)
	if c.Policy() != PolicyTinyLFU || c.Stats().Policy != "tinylfu" {
		t.Fatalf("policy not threaded: %v / %q", c.Policy(), c.Stats().Policy)
	}
}

// putSeen stores key the way the estimator does — a lookup, and a
// store only when it misses — twice over. Under PolicyTinyLFU the
// first store is refused (the key's first sighting) and the second
// lands; under PolicyLRU the first lands and the second lookup hits.
func putSeen[V any](c *Cache[V], key string, val V) {
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(key); !ok {
			c.Put(key, val)
		}
	}
}

// TestTinyLFUGetPut: plain value semantics must be identical to LRU —
// admission decides which keys survive pressure, never what a
// resident key returns. A key's first miss-then-store is refused,
// leaving a rejection and no entry; its second lands.
func TestTinyLFUGetPut(t *testing.T) {
	c := NewPolicy[int](64, 2, PolicyTinyLFU)
	for round := 0; round < 2; round++ {
		for i := 0; i < 32; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, ok := c.Get(k); ok {
				t.Fatalf("round %d: Get(%s) hit before any store landed", round, k)
			}
			c.Put(k, i)
		}
		if st := c.Stats(); round == 0 && (st.Entries != 0 || st.Rejections != 32) {
			t.Fatalf("first sightings: Entries = %d, Rejections = %d; want 0, 32", st.Entries, st.Rejections)
		}
	}
	for i := 0; i < 32; i++ {
		if v, ok := c.Get(fmt.Sprintf("k%d", i)); !ok || v != i {
			t.Fatalf("Get(k%d) = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	c.Put("k3", 333) // update in place, wherever the entry lives
	if v, ok := c.Get("k3"); !ok || v != 333 {
		t.Fatalf("updated Get(k3) = (%d, %v), want (333, true)", v, ok)
	}
	if c.Len() != 32 {
		t.Fatalf("Len = %d, want 32", c.Len())
	}
}

// TestTinyLFUCapacityBound: the window/main split must enforce the
// same total bound as LRU, for any capacity including degenerate
// 1-entry shards (mainCap == 0). Each key is stored as the estimator
// stores it, so it lands on its second sighting and the cache fills.
func TestTinyLFUCapacityBound(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 100, 512} {
		c := NewPolicy[int](capacity, 1, PolicyTinyLFU)
		for i := 0; i < 4*capacity+16; i++ {
			putSeen(c, fmt.Sprintf("k%d", i), i)
		}
		if c.Len() > c.Capacity() {
			t.Fatalf("capacity %d: Len %d exceeds Capacity %d", capacity, c.Len(), c.Capacity())
		}
		st := c.Stats()
		if st.Entries != c.Capacity() {
			t.Fatalf("capacity %d: %d entries resident, want the cache full", capacity, st.Entries)
		}
		// Every miss was followed by a store of the absent key.
		if got := uint64(st.Entries) + st.Evictions + st.Rejections; got != st.Misses {
			t.Fatalf("capacity %d: entries(%d)+evictions(%d)+rejections(%d) = %d, want %d inserts",
				capacity, st.Entries, st.Evictions, st.Rejections, got, st.Misses)
		}
	}
}

// TestTinyLFUScanResistance is the policy's reason to exist: a hot
// working set that fits the cache, plus a long scan of one-hit
// wonders sweeping through — a cold /v1/batch run landing on a warm
// interactive server. The hot keys keep being accessed (round-robin,
// 1 per 4 scan keys), but between two touches of the same hot key the
// interleaved traffic pushes ~2× the cache capacity of distinct keys,
// so LRU evicts the hot set over and over; TinyLFU's admission duel
// rejects the scan's frequency-1 candidates and keeps the hot set
// resident.
func TestTinyLFUScanResistance(t *testing.T) {
	const capacity, hot, scan = 128, 64, 8192
	run := func(p Policy) (survived int) {
		c := NewPolicy[int](capacity, 1, p)
		access := func(k string, v int) {
			if _, ok := c.Get(k); !ok {
				c.Put(k, v)
			}
		}
		// Warm the hot set so its frequency is established.
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
			if _, ok := c.Get(fmt.Sprintf("hot-%d", i)); ok {
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

// TestTinyLFUAdmissionCounters: every window overflow ends in exactly
// one of admission or rejection+... — pin the full counter algebra on
// a deterministic single-shard trace.
func TestTinyLFUAdmissionCounters(t *testing.T) {
	c := NewPolicy[int](64, 1, PolicyTinyLFU)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("k%d", i%200)
		if _, ok := c.Get(k); !ok {
			c.Put(k, i)
		}
	}
	st := c.Stats()
	if st.Admissions == 0 {
		t.Fatal("no admissions recorded on an overflowing workload")
	}
	if st.Rejections == 0 {
		t.Fatal("no rejections recorded on an overflowing workload")
	}
	if st.Hits+st.Misses != 1000 {
		t.Fatalf("hits(%d)+misses(%d) != 1000 lookups", st.Hits, st.Misses)
	}
	inserts := st.Misses // every miss was followed by a Put of a new key
	if got := uint64(st.Entries) + st.Evictions + st.Rejections; got != inserts {
		t.Fatalf("entries(%d)+evictions(%d)+rejections(%d) = %d, want %d",
			st.Entries, st.Evictions, st.Rejections, got, inserts)
	}
}

// TestLRURejectionsAlwaysZero: the new counters must stay silent
// under the default policy — LRU admits everything.
func TestLRURejectionsAlwaysZero(t *testing.T) {
	c := New[int](16)
	for i := 0; i < 500; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
		c.Get(fmt.Sprintf("k%d", i/2))
	}
	st := c.Stats()
	if st.Rejections != 0 || st.Admissions != 0 || st.SketchResets != 0 {
		t.Fatalf("LRU cache reported admission stats: %+v", st)
	}
	if st.Policy != "lru" {
		t.Fatalf("Policy = %q, want lru", st.Policy)
	}
}

// TestTinyLFUPurge: Purge must clear entries and both segment lists
// (re-inserts work, capacity still enforced) while the sketch
// survives — frequency is workload signal, not value state.
func TestTinyLFUPurge(t *testing.T) {
	c := NewPolicy[int](64, 1, PolicyTinyLFU)
	for round := 0; round < 4; round++ {
		for i := 0; i < 32; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, ok := c.Get(k); !ok {
				c.Put(k, i)
			}
		}
	}
	pre := c.Stats()
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Purge", c.Len())
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("purged entry still resident")
	}
	// Refill past capacity: the lists were reset, so this must neither
	// panic nor leak entries beyond the bound.
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("r%d", i)
		if _, ok := c.Get(k); !ok {
			c.Put(k, i)
		}
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d exceeds Capacity %d after purge+refill", c.Len(), c.Capacity())
	}
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
		c.Get(k)
		c.Get(k) // the second sighting: a store would now land
	}
	c.Purge()
	c.PutHashGen(HashString("stale"), []byte("stale"), 1, gen)
	if st := c.Stats(); st.Entries != 0 || st.Rejections != 0 {
		t.Fatalf("stale-generation store left %d entries, %d rejections; want it dropped before admission",
			st.Entries, st.Rejections)
	}
	if _, ok := c.Get("stale"); ok {
		t.Fatal("stale-generation store resurrected past Purge")
	}
	c.PutHashGen(HashString("fresh"), []byte("fresh"), 2, c.Gen())
	if v, ok := c.Get("fresh"); !ok || v != 2 {
		t.Fatal("current-generation store dropped")
	}
}

// verifyShardStructure walks both intrusive lists of every shard and
// reconciles them against the map and the segment bookkeeping: every
// listed entry is the one its key maps to. Caller must guarantee
// quiescence.
func verifyShardStructure[V any](t *testing.T, c *Cache[V]) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		wn := 0
		for e := s.whead; e != nil; e = e.next {
			if e.seg != segWindow {
				t.Errorf("shard %d: window list holds a seg=%d entry", i, e.seg)
			}
			if s.m[e.key] != e {
				t.Errorf("shard %d: window entry %q is not the one its key maps to", i, e.key)
			}
			wn++
		}
		mn := 0
		for e := s.head; e != nil; e = e.next {
			if e.seg != segMain {
				t.Errorf("shard %d: main list holds a seg=%d entry", i, e.seg)
			}
			if s.m[e.key] != e {
				t.Errorf("shard %d: main entry %q is not the one its key maps to", i, e.key)
			}
			mn++
		}
		if wn != s.windowLen || (s.policy == PolicyTinyLFU && mn != s.mainLen) {
			t.Errorf("shard %d: list lengths %d/%d disagree with windowLen=%d mainLen=%d",
				i, wn, mn, s.windowLen, s.mainLen)
		}
		if wn+mn != len(s.m) {
			t.Errorf("shard %d: lists hold %d entries, map %d", i, wn+mn, len(s.m))
		}
		if s.windowLen > s.windowCap || s.mainLen > s.mainCap {
			if s.policy == PolicyTinyLFU {
				t.Errorf("shard %d: segment over capacity: window %d/%d main %d/%d",
					i, s.windowLen, s.windowCap, s.mainLen, s.mainCap)
			}
		}
		s.mu.Unlock()
	}
}

// TestAdmissionAccountingStorm is the satellite's exactness gate:
// under a concurrent get/put storm (run it with -race), every shard
// must reconcile exactly — inserts routed to the shard equal its live
// entries plus evictions plus rejections, lookups equal hits plus
// misses, and the intrusive lists match the map and segment caps.
// Keys are distinct per goroutine so the per-shard insert count is a
// pure function of the key set, computable outside the cache.
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
						c.Put(key, i)
						c.Get(key)                          // hit or already-evicted miss
						c.Get(fmt.Sprintf("other-%d-x", i)) // guaranteed miss
					}
				}(g)
			}
			wg.Wait()

			// Per-shard insert counts, recomputed from the key set.
			inserts := make([]uint64, c.ShardCount())
			for g := 0; g < goroutines; g++ {
				for i := 0; i < perG; i++ {
					inserts[c.ShardIndex(HashString(fmt.Sprintf("g%d-%d", g, i)))]++
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
			if lookups := uint64(2 * goroutines * perG); st.Hits+st.Misses != lookups {
				t.Errorf("hits(%d)+misses(%d) != %d lookups", st.Hits, st.Misses, lookups)
			}
			if st.Entries > st.Capacity {
				t.Errorf("entries %d exceed capacity %d", st.Entries, st.Capacity)
			}
			if p == PolicyLRU && st.Rejections != 0 {
				t.Errorf("LRU rejected %d inserts", st.Rejections)
			}
		})
	}
}

// TestGetBytesHashProbeMisses pins the byte-key probe's miss edges:
// absent keys, empty and nil spellings, probes against a
// zero-capacity cache, and hash/spelling mismatches must all count
// one miss and return the zero value — under both policies, where
// TinyLFU additionally feeds the probe into the sketch so repeated
// byte-probe misses still build admission frequency.
func TestGetBytesHashProbeMisses(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
		t.Run(p.String(), func(t *testing.T) {
			c := NewPolicy[int](64, 2, p)
			putSeen(c, "present", 7)
			base := c.Stats().Misses

			probes := 0
			probe := func(key []byte) {
				probes++
				if v, ok := c.GetBytesHash(Hash(key), key); ok || v != 0 {
					t.Fatalf("GetBytesHash(%q) = (%d, %v), want miss", key, v, ok)
				}
			}
			probe([]byte("absent"))
			probe([]byte{})
			probe(nil)
			probe([]byte("present\x00")) // near-miss spelling
			if st := c.Stats(); st.Misses != base+uint64(probes) {
				t.Fatalf("misses = %d after %d probe misses", st.Misses, probes)
			}
			// The hit side of the same API, for contrast.
			if v, ok := c.GetBytesHash(Hash([]byte("present")), []byte("present")); !ok || v != 7 {
				t.Fatalf("GetBytesHash(present) = (%d, %v), want (7, true)", v, ok)
			}

			// A wrong hash routes to (likely) another shard and probes
			// its map: must miss, never panic, and count on the shard
			// it landed on.
			before := c.Stats().Misses
			if _, ok := c.GetBytesHash(Hash([]byte("present"))+1, []byte("present")); ok {
				// Permitted only in the 1-in-2^63 case the wrong hash
				// still lands on the right shard — with 2 shards the
				// +1 flips the shard bit, so it cannot.
				t.Fatal("wrong-hash probe hit")
			}
			if c.Stats().Misses != before+1 {
				t.Fatal("wrong-hash probe not counted as a miss")
			}

			// Zero-capacity cache: every byte probe is a clean miss.
			z := NewPolicy[int](0, 2, p)
			z.Put("x", 1)
			if _, ok := z.GetBytesHash(Hash([]byte("x")), []byte("x")); ok {
				t.Fatal("zero-capacity cache hit")
			}
			if st := z.Stats(); st.Misses != 1 || st.Entries != 0 {
				t.Fatalf("zero-capacity stats %+v", st)
			}
		})
	}
}

// TestTinyLFUByteProbesBuildFrequency: byte-spelled probes — by value
// and by reference, the latter being every phrase-cache lookup the
// estimator makes — must feed the sketch exactly like string misses: a
// key probed repeatedly as bytes before first insertion should
// out-duel a one-hit wonder.
func TestTinyLFUByteProbesBuildFrequency(t *testing.T) {
	probes := map[string]func(c *Cache[int], h uint64, key []byte){
		"GetBytesHash":    func(c *Cache[int], h uint64, key []byte) { c.GetBytesHash(h, key) },
		"GetBytesHashRef": func(c *Cache[int], h uint64, key []byte) { c.GetBytesHashRef(h, key) },
	}
	for name, probe := range probes {
		c := NewPolicy[int](64, 1, PolicyTinyLFU)
		s := &c.shards[0]
		key := []byte("repeat-offender")
		h := Hash(key)
		for i := 0; i < 10; i++ {
			probe(c, h, key)
		}
		s.mu.Lock()
		freq := s.sk.estimate(h)
		cold := s.sk.estimate(Hash([]byte("never-seen")))
		s.mu.Unlock()
		if freq <= cold {
			t.Fatalf("%s: 10 byte-probes left estimate %d, cold key %d", name, freq, cold)
		}
	}
}

// TestWarmPathZeroAllocs pins the allocation-free warm path for both
// policies: a Get hit (string and bytes) and a Put of an existing key
// must not allocate — the TinyLFU sketch is fixed arrays and nibble
// arithmetic, never a heap object.
func TestWarmPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
		t.Run(p.String(), func(t *testing.T) {
			c := NewPolicy[int](256, 4, p)
			keys := make([]string, 64)
			bkeys := make([][]byte, 64)
			hashes := make([]uint64, 64)
			for i := range keys {
				keys[i] = fmt.Sprintf("warm-%d", i)
				bkeys[i] = []byte(keys[i])
				hashes[i] = HashString(keys[i])
				putSeen(c, keys[i], i)
			}
			i := 0
			run := func() {
				k := i & 63
				c.GetHash(hashes[k], keys[k])
				c.GetBytesHash(hashes[k], bkeys[k])
				c.PutHash(hashes[k], keys[k], i)
				i++
			}
			run() // warm
			if allocs := testing.AllocsPerRun(500, run); allocs != 0 {
				t.Fatalf("warm Get/Put path allocates %.1f/op under %v, want 0", allocs, p)
			}
		})
	}
}

// TestSketchAging: drive enough traffic through one shard to trigger
// the halving reset, and check it both fired and decayed estimates.
func TestSketchAging(t *testing.T) {
	c := NewPolicy[int](64, 1, PolicyTinyLFU)
	s := &c.shards[0]
	hot := HashString("hot")
	for i := 0; i < 30; i++ {
		c.GetHash(hot, "hot") // saturate hot's counters toward 15
	}
	s.mu.Lock()
	pre := s.sk.estimate(hot)
	sample := s.sk.sample
	s.mu.Unlock()
	if pre < 10 {
		t.Fatalf("hot estimate %d after 30 touches, want near saturation", pre)
	}
	// Flood with distinct keys until at least one aging reset fires.
	for i := 0; i < 2*sample; i++ {
		k := fmt.Sprintf("flood-%d", i)
		c.GetHash(HashString(k), k)
	}
	st := c.Stats()
	if st.SketchResets == 0 {
		t.Fatalf("no sketch reset after %d touches (sample %d)", 2*sample, sample)
	}
	s.mu.Lock()
	post := s.sk.estimate(hot)
	s.mu.Unlock()
	if post >= pre {
		t.Fatalf("aging did not decay hot estimate: %d -> %d", pre, post)
	}
}

// TestDoorkeeperFalsePositives fills one shard's doorkeeper to its
// aging-period limit — sample/2 distinct keys, the most a period can
// add — and checks that a fixed set of 1M hashes none of them share
// reads "seen" for fewer than 0.1 %. A false "seen" is what lets a
// first sighting past the store gate; the 2-probe bloom this table
// replaced answered "seen" for about 2 % at the same fill.
func TestDoorkeeperFalsePositives(t *testing.T) {
	var k sketch
	k.init(512) // one shard of the default 8,192-entry, 16-shard cache
	hashOf := func(i uint64) uint64 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], i)
		return Hash(b[:])
	}
	limit := k.sample / 2
	for i := 0; i < limit; i++ {
		if !k.doorSet(hashOf(uint64(i))) {
			t.Fatalf("key %d of %d read as seen while filling", i, limit)
		}
	}
	used := 0
	for _, fp := range k.door {
		if fp != 0 {
			used++
		}
	}
	if used != limit || 8*used > 5*len(k.door) {
		t.Fatalf("door holds %d fingerprints in %d slots after %d keys; want all, at most 62.5 %% full",
			used, len(k.door), limit)
	}
	const probes = 1 << 20
	falseSeen := 0
	for i := uint64(0); i < probes; i++ {
		if k.doorContains(hashOf(1<<32 + i)) {
			falseSeen++
		}
	}
	t.Logf("door %d/%d slots full: %d of %d unseen hashes read as seen (%.4f %%)",
		used, len(k.door), falseSeen, probes, 100*float64(falseSeen)/probes)
	if falseSeen*1000 >= probes {
		t.Fatalf("%d of %d unseen hashes read as seen; want under 0.1 %%", falseSeen, probes)
	}
}

// TestSketchEstimateNeverUnder: count-min collisions may only ever
// over-estimate — for any key touched k times (k < 15, no aging), the
// estimate must be >= min(k, 15).
func TestSketchEstimateNeverUnder(t *testing.T) {
	var k sketch
	k.init(1024)
	for i := 0; i < 200; i++ {
		h := HashString(fmt.Sprintf("key-%d", i))
		touches := 1 + i%10
		for j := 0; j < touches; j++ {
			k.touch(h)
		}
		if est := k.estimate(h); est < uint64(touches) {
			t.Fatalf("key %d touched %d times, estimate %d", i, touches, est)
		}
	}
}
