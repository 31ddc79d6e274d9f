package memo

import (
	"fmt"
	"testing"
)

// TestGetBytesMatchesGet: a key looked up under its byte hash must be
// observably identical to the same key under its string hash — same
// shard, same hit/miss outcome, same counters.
func TestGetBytesMatchesGet(t *testing.T) {
	c := newLRU[int](64)
	for i := 0; i < 32; i++ {
		put(c, fmt.Sprintf("key-%d", i), i)
	}
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("key-%d", i)
		sv, sok := get(c, key)
		bv, bok := getBytes(c, []byte(key))
		if sv != bv || sok != bok {
			t.Fatalf("key %q: get = (%d, %v), getBytes = (%d, %v)", key, sv, sok, bv, bok)
		}
	}
	if _, ok := getBytes(c, []byte("absent")); ok {
		t.Fatal("getBytes(absent) hit")
	}
	if _, ok := getBytes(c, nil); ok {
		t.Fatal("getBytes(nil) hit")
	}
	st := c.Stats()
	// 32 string hits + 32 byte hits; 2 byte misses.
	if st.Hits != 64 || st.Misses != 2 {
		t.Fatalf("counters hits=%d misses=%d, want 64/2", st.Hits, st.Misses)
	}
}

// TestGetBytesSharding: a key probed as bytes must land on the same
// shard it was stored under as a string — pinned by filling far past
// one shard's capacity and re-probing everything both ways.
func TestGetBytesSharding(t *testing.T) {
	const n = 500
	c := newLRU[int](2 * n)
	for i := 0; i < n; i++ {
		put(c, fmt.Sprintf("ingredient-%d", i), i)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("ingredient-%d", i)
		v, ok := getBytes(c, []byte(key))
		if !ok || v != i {
			t.Fatalf("getBytes(%q) = (%d, %v), want (%d, true)", key, v, ok, i)
		}
	}
}

// TestGetBytesRefreshesLRU: a byte-key hit must count as recency, same
// as a string hit, so the entry survives a subsequent eviction wave.
func TestGetBytesRefreshesLRU(t *testing.T) {
	// One shard with room for two entries, so eviction order is
	// observable without hunting for hash collisions.
	c := newSharded[int](2, 1)
	put(c, "hot", 1)
	put(c, "warm", 2)
	if _, ok := getBytes(c, []byte("hot")); !ok {
		t.Fatal("hot evaporated")
	}
	// "warm" is now the least recently used entry; the next insert must
	// evict it, not the byte-refreshed "hot".
	put(c, "new", 3)
	if _, ok := get(c, "hot"); !ok {
		t.Fatal("hot evicted despite byte-key refresh")
	}
	if _, ok := get(c, "warm"); ok {
		t.Fatal("warm survived; LRU did not account the byte-key hit")
	}
}

// TestFnv1aBytesMatchesString: the two hash spellings must agree on
// every key, or byte probes would look in the wrong shard.
func TestFnv1aBytesMatchesString(t *testing.T) {
	keys := []string{"", "a", "salt", "2 cups flour", "ingredient-42", "\x00\xff"}
	for _, k := range keys {
		if hashString(k) != Hash([]byte(k)) {
			t.Errorf("hashString(%q) = %d, Hash = %d", k, hashString(k), Hash([]byte(k)))
		}
	}
}
