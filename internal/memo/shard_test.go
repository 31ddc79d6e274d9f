package memo

import (
	"fmt"
	"sync"
	"testing"
)

// TestShardIndexStable pins shard ownership: a key's shard is a pure
// function of its bytes — identical for its string and byte hashes,
// across repeated calls and concurrent storms — so a key's lookups and
// its stores always meet in the same shard.
func TestShardIndexStable(t *testing.T) {
	c := newSharded[int](1024, 8)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("phrase %d cups flour", i)
	}
	want := make([]int, len(keys))
	for i, k := range keys {
		want[i] = shardIndex(c, hashString(k))
		if got := shardIndex(c, Hash([]byte(k))); got != want[i] {
			t.Fatalf("ShardIndex(Hash(%q)) = %d, string spelling gives %d", k, got, want[i])
		}
		if want[i] < 0 || want[i] >= len(c.shards) {
			t.Fatalf("ShardIndex(%q) = %d out of range [0,%d)", k, want[i], len(c.shards))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 100; rep++ {
				for i, k := range keys {
					if got := shardIndex(c, hashString(k)); got != want[i] {
						t.Errorf("shard for %q moved: %d → %d", k, want[i], got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestHashVariantsAgree: a key stored under its string hash must be
// found under its byte hash, through the reference and through the
// by-value read of it alike.
func TestHashVariantsAgree(t *testing.T) {
	c := newLRU[string](128)
	key := "2 cups all-purpose flour"
	h := hashString(key)
	if h != Hash([]byte(key)) {
		t.Fatal("Hash and hashString disagree")
	}
	c.PutHashGen(h, []byte(key), "v1", c.Gen())
	if v, ok := get(c, key); !ok || v != "v1" {
		t.Fatalf("get after PutHashGen = %q, %v", v, ok)
	}
	if v, ok := getBytes(c, []byte(key)); !ok || v != "v1" {
		t.Fatalf("getBytes = %q, %v", v, ok)
	}
	if r := c.GetBytesHashRef(Hash([]byte(key)), []byte(key)); r == nil || *r != "v1" {
		t.Fatalf("GetBytesHashRef = %v", r)
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 0 {
		t.Fatalf("stats after 3 hits: %+v", st)
	}
}

// TestPerShardStatsSumExact: the per-shard counters must aggregate to
// the exact lifetime totals under a concurrent storm — the "batched
// flush to the aggregate" happens on read and may not lose updates.
func TestPerShardStatsSumExact(t *testing.T) {
	const (
		goroutines = 32
		perG       = 500
	)
	c := newSharded[int](1<<14, 16)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				get(c, key) // always a miss: keys are unique per goroutine
				put(c, key, i)
				get(c, key) // always a hit: capacity exceeds total keys
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if want := uint64(goroutines * perG); st.Hits != want {
		t.Errorf("hits = %d, want %d", st.Hits, want)
	}
	if want := uint64(goroutines * perG); st.Misses != want {
		t.Errorf("misses = %d, want %d", st.Misses, want)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (capacity %d > %d keys)", st.Evictions, capacityOf(c), goroutines*perG)
	}
	if st.Entries != goroutines*perG {
		t.Errorf("entries = %d, want %d", st.Entries, goroutines*perG)
	}
}
