package memo

// Test-side spellings of the cache API. Production reads and writes a
// cache only through GetBytesHashRef and PutHashGen; these helpers
// spell string keys, by-value reads and the cache's shape on top of
// them, so the tests state what they check without a second lookup or
// store path in the package.

// hashString is FNV-1a over a string, written independently of Hash so
// TestFnv1aBytesMatchesString can check one against the other.
func hashString(s string) uint64 {
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

// newLRU builds a PolicyLRU cache over DefaultShards shards.
func newLRU[V any](capacity int) *Cache[V] {
	return NewPolicy[V](capacity, DefaultShards, PolicyLRU)
}

// newSharded builds a PolicyLRU cache with an explicit shard count.
func newSharded[V any](capacity, shards int) *Cache[V] {
	return NewPolicy[V](capacity, shards, PolicyLRU)
}

// get looks key up and copies its value out.
func get[V any](c *Cache[V], key string) (V, bool) {
	return getHash(c, hashString(key), []byte(key))
}

// getBytes is get with the key spelled as bytes.
func getBytes[V any](c *Cache[V], key []byte) (V, bool) {
	return getHash(c, Hash(key), key)
}

// getHash is get with the key's hash given, right or wrong.
func getHash[V any](c *Cache[V], h uint64, key []byte) (V, bool) {
	if r := c.GetBytesHashRef(h, key); r != nil {
		return *r, true
	}
	var zero V
	return zero, false
}

// put stores key at the current generation.
func put[V any](c *Cache[V], key string, val V) {
	c.PutHashGen(hashString(key), []byte(key), val, c.Gen())
}

// putSeen stores key the way the estimator does — a lookup, and a
// store only when it misses — twice over. Under PolicyTinyLFU the
// first store is refused (the key's first sighting) and the second
// lands; under PolicyLRU the first lands and the second lookup hits.
func putSeen[V any](c *Cache[V], key string, val V) {
	for i := 0; i < 2; i++ {
		if _, ok := get(c, key); !ok {
			put(c, key, val)
		}
	}
}

// shardIndex is the index of the shard that owns key hash h.
func shardIndex[V any](c *Cache[V], h uint64) int { return int(h & c.mask) }

// length is the number of resident entries.
func length[V any](c *Cache[V]) int { return c.Stats().Entries }

// capacityOf is the entry bound eviction enforces.
func capacityOf[V any](c *Cache[V]) int { return c.Stats().Capacity }
