package memo

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := newLRU[int](8)
	if _, ok := get(c, "a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	put(c, "a", 1)
	put(c, "b", 2)
	if v, ok := get(c, "a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	if v, ok := get(c, "b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %d, %v; want 2, true", v, ok)
	}
	put(c, "a", 10) // refresh overwrites
	if v, _ := get(c, "a"); v != 10 {
		t.Fatalf("after refresh Get(a) = %d; want 10", v)
	}
	if n := length(c); n != 2 {
		t.Fatalf("Len = %d; want 2", n)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Single shard so the LRU order is global and observable.
	c := newSharded[int](2, 1)
	put(c, "a", 1)
	put(c, "b", 2)
	get(c, "a")    // a is now most-recent
	put(c, "c", 3) // must evict b, the least-recent
	if _, ok := get(c, "b"); ok {
		t.Fatal("b survived eviction; LRU order ignored")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := get(c, k); !ok {
			t.Fatalf("%s evicted; want it retained", k)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("Evictions = %d; want 1", ev)
	}
}

func TestCounters(t *testing.T) {
	c := newSharded[int](1, 1)
	get(c, "x") // miss
	put(c, "x", 1)
	get(c, "x")    // hit
	put(c, "y", 2) // evicts x
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("Stats = %+v; want 1 hit, 1 miss, 1 eviction, 1 entry", st)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("HitRate = %v; want 0.5", hr)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("HitRate of zero stats should be 0")
	}
}

func TestPurge(t *testing.T) {
	c := newLRU[string](32)
	for i := 0; i < 20; i++ {
		put(c, fmt.Sprint(i), "v")
	}
	c.Purge()
	if n := length(c); n != 0 {
		t.Fatalf("Len after Purge = %d; want 0", n)
	}
	if _, ok := get(c, "3"); ok {
		t.Fatal("purged entry still retrievable")
	}
	put(c, "3", "again")
	if _, ok := get(c, "3"); !ok {
		t.Fatal("cache unusable after Purge")
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := newLRU[int](0)
	put(c, "a", 1)
	if _, ok := get(c, "a"); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
	if n := length(c); n != 0 {
		t.Fatalf("Len = %d; want 0", n)
	}
}

func TestShardCountRounding(t *testing.T) {
	// 5 shards rounds to 8; capacity 3 still gives every shard room for
	// at least one entry, so the effective capacity is >= requested.
	c := newSharded[int](3, 5)
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d; want 8", len(c.shards))
	}
	for i := 0; i < 100; i++ {
		put(c, fmt.Sprint(i), i)
	}
	if n := length(c); n < 3 || n > 8 {
		t.Fatalf("Len = %d; want within [3, 8] (1 per shard)", n)
	}
}

func TestBoundedUnderChurn(t *testing.T) {
	const capacity = 64
	c := newLRU[int](capacity)
	for i := 0; i < 10*capacity; i++ {
		put(c, fmt.Sprint(i), i)
	}
	// Per-shard rounding can admit slightly more than capacity, never
	// more than capacity + shard count.
	if n := length(c); n > capacity+DefaultShards {
		t.Fatalf("Len = %d; cache unbounded (capacity %d)", n, capacity)
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Fatal("no evictions recorded under churn")
	}
}

// TestConcurrentStress hammers one cache from many goroutines; run with
// -race this verifies the sharded locking.
func TestConcurrentStress(t *testing.T) {
	c := newLRU[int](128)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprint((w*7 + i) % 200) // overlapping key space
				if v, ok := get(c, key); ok && v != len(key) {
					t.Errorf("Get(%s) = %d; want %d", key, v, len(key))
					return
				}
				put(c, key, len(key))
				if i%97 == 0 {
					c.Stats()
				}
				if i%1009 == 0 {
					c.Purge()
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stress stats %+v; expected both hits and misses", st)
	}
}
