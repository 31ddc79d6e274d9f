package memo

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// putRef stores key as the estimator's phrase cache does (putSeen: a
// miss, then a store, until the key's second sighting lands it under
// TinyLFU) and takes a reference to its entry, as the phrase cache
// hands one out on a later hit.
func putRef(c *Cache[int], key string, val int) *int {
	putSeen(c, key, val)
	return c.GetBytesHashRef(hashString(key), []byte(key))
}

// TestRefContract walks one reference through each way its entry can
// leave or change in the cache — a refresh of its key, an LRU
// eviction, a refused store of its key and a Purge — and checks it still
// reads the value it was handed out with, while lookups see the
// cache's current state.
func TestRefContract(t *testing.T) {
	t.Run("refresh", func(t *testing.T) {
		for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
			c := NewPolicy[int](64, 1, p)
			h := hashString("a")
			r1 := putRef(c, "a", 1)
			put(c, "a", 2) // the entry is shared: the refresh swaps it
			r2 := c.GetBytesHashRef(h, []byte("a"))
			c.PutHashGen(h, []byte("a"), 3, c.Gen())
			if *r1 != 1 || *r2 != 2 {
				t.Fatalf("%v: references read %d, %d after refreshes; want 1, 2", p, *r1, *r2)
			}
			if v, ok := get(c, "a"); !ok || v != 3 {
				t.Fatalf("%v: Get(a) = %d, %v after refreshes; want 3, true", p, v, ok)
			}
			if n := length(c); n != 1 {
				t.Fatalf("%v: Len = %d after refreshing one key; want 1", p, n)
			}
			verifyShardStructure(t, c)
		}
	})
	t.Run("eviction", func(t *testing.T) {
		c := newSharded[int](2, 1)
		r := putRef(c, "a", 1)
		put(c, "b", 2)
		put(c, "c", 3) // evicts a, the least recent
		if _, ok := get(c, "a"); ok {
			t.Fatal("a survived eviction")
		}
		if *r != 1 {
			t.Fatalf("reference reads %d after eviction; want 1", *r)
		}
	})
	t.Run("rejection", func(t *testing.T) {
		// A refused store of a key whose old entry was evicted with a
		// reference out leaves that reference alone.
		c := NewPolicy[int](2, 1, PolicyTinyLFU)
		r := putRef(c, "cold", -1)
		putSeen(c, "b", 2)
		putSeen(c, "c", 3) // evicts cold, the least recent
		for i := 0; i < c.shards[0].door.Period(); i++ {
			get(c, fmt.Sprintf("flood-%d", i)) // ends the door's period
		}
		before := c.Stats().Rejections
		get(c, "cold") // a first sighting again
		put(c, "cold", -2)
		if st := c.Stats(); st.Rejections != before+1 {
			t.Fatalf("Rejections = %d; want %d (cold's first sighting)", st.Rejections, before+1)
		}
		if _, ok := c.shards[0].m["cold"]; ok {
			t.Fatal("cold was stored on a first sighting")
		}
		if *r != -1 {
			t.Fatalf("reference reads %d after rejection; want -1", *r)
		}
	})
	t.Run("purge", func(t *testing.T) {
		for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
			c := NewPolicy[int](8, 1, p)
			ra := putRef(c, "a", 1)
			rb := putRef(c, "b", 2)
			c.Purge()
			if *ra != 1 || *rb != 2 {
				t.Fatalf("%v: references read %d, %d after Purge; want 1, 2", p, *ra, *rb)
			}
			if r := c.GetBytesHashRef(hashString("a"), []byte("a")); r != nil {
				t.Fatalf("%v: purged key still resolves to %d", p, *r)
			}
			c.PutHashGen(hashString("a"), []byte("a"), 9, c.Gen()-1)
			if r := c.GetBytesHashRef(hashString("a"), []byte("a")); r != nil {
				t.Fatalf("%v: a pre-purge generation's store landed: %d", p, *r)
			}
		}
	})
}

// TestRefModel drives checkModel with seeded random op streams over
// both policies, so the reference contract is model-checked on every
// test run and not only on FuzzMemoAdmission's seeds. The streams are
// long and skewed enough to reach every event the contract names.
func TestRefModel(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
		var total modelRun
		purges := 0
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 400)
			for i := range ops {
				// Skewed keys: low nibbles 0-3 carry half the traffic,
				// so TinyLFU sees both frequent and one-off keys.
				key := byte(rng.Intn(16))
				if rng.Intn(2) == 0 {
					key &= 3
				}
				code := byte(rng.Intn(16))
				if code == 3 && rng.Intn(8) != 0 {
					code = 7 // purges rare, reference lookups common
				}
				if code == 3 || code == 4 {
					purges++
				}
				ops[i] = code<<4 | key
			}
			run := checkModel(t, p, 2+int(seed%10), 1<<(seed%3), ops)
			total.refs += run.refs
			total.refRefreshes += run.refRefreshes
			total.stats.Evictions += run.stats.Evictions
			total.stats.Rejections += run.stats.Rejections
			total.refused += run.refused
		}
		if total.refs == 0 || total.refRefreshes == 0 || total.stats.Evictions == 0 || purges == 0 {
			t.Fatalf("%v: streams never exercised the contract: %d refs, %d refreshes of referenced keys, %d evictions, %d purges",
				p, total.refs, total.refRefreshes, total.stats.Evictions, purges)
		}
		// Both outcomes of a TinyLFU put, and every rejection a
		// refused put.
		if p == PolicyTinyLFU && (total.refused == 0 || total.stats.Rejections != uint64(total.refused)) {
			t.Fatalf("%v: streams reached %d refused puts and %d rejections; want some, and equal",
				p, total.refused, total.stats.Rejections)
		}
	}
}

// refPair is a value whose halves must always agree; a torn or
// rewritten read shows as a mismatch, and under -race as a report.
type refPair struct{ a, b uint64 }

// TestRefStorm: readers hold references and keep dereferencing them
// while writers refresh the same keys and purge now and then. Run under
// -race, any write to a value a reference points at is a reported data
// race; without it the readers still check that each reference keeps
// the value it first read.
func TestRefStorm(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
		c := NewPolicy[refPair](16, 4, p)
		const nkeys = 24 // more keys than capacity: evictions too
		keys := make([]string, nkeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("storm-%d", i)
		}
		const writers, readers, iters = 4, 4, 3000
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					k := keys[(w*5+i)%nkeys]
					n := uint64(w*iters + i)
					v := refPair{n, ^n}
					c.PutHashGen(hashString(k), []byte(k), v, c.Gen())
					if i%701 == 0 {
						c.Purge()
					}
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				type held struct {
					ref  *refPair
					want refPair
				}
				var ring [16]held
				for i := 0; i < iters; i++ {
					k := keys[(r*7+i)%nkeys]
					if ref := c.GetBytesHashRef(hashString(k), []byte(k)); ref != nil {
						v := *ref
						if v.b != ^v.a {
							t.Errorf("%v: %s reads torn value %+v", p, k, v)
							return
						}
						ring[i%len(ring)] = held{ref, v}
					}
					for _, h := range ring {
						if h.ref != nil && *h.ref != h.want {
							t.Errorf("%v: reference changed from %+v to %+v", p, h.want, *h.ref)
							return
						}
					}
				}
			}(r)
		}
		wg.Wait()
		verifyShardStructure(t, c)
	}
}
