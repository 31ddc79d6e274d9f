package memo

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestStatsSnapshotShape pins the exported snapshot fields — the wire
// form nutriserve's GET /v1/stats exposes — across cache shapes.
func TestStatsSnapshotShape(t *testing.T) {
	cases := []struct {
		name         string
		capacity     int
		shards       int
		wantCap      int // effective capacity (per-shard rounding enforced)
		wantShards   int
		puts         int
		wantEntries  int
		wantAtLeastE uint64 // eviction floor
	}{
		{name: "disabled", capacity: 0, shards: 4, wantCap: 0, wantShards: 4, puts: 10, wantEntries: 0},
		{name: "single shard", capacity: 4, shards: 1, wantCap: 4, wantShards: 1, puts: 10, wantEntries: 4, wantAtLeastE: 6},
		// puts stays ≤ per-shard capacity so entry counts are exact
		// regardless of how keys hash across shards.
		{name: "rounded shards", capacity: 16, shards: 3, wantCap: 16, wantShards: 4, puts: 4, wantEntries: 4},
		{name: "per-shard rounding", capacity: 5, shards: 4, wantCap: 8, wantShards: 4, puts: 2, wantEntries: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newSharded[int](tc.capacity, tc.shards)
			for i := 0; i < tc.puts; i++ {
				put(c, fmt.Sprintf("k%02d", i), i)
			}
			s := c.Stats()
			if s.Capacity != tc.wantCap {
				t.Errorf("Capacity %d, want %d", s.Capacity, tc.wantCap)
			}
			if s.Shards != tc.wantShards {
				t.Errorf("Shards %d, want %d", s.Shards, tc.wantShards)
			}
			if s.Entries != tc.wantEntries {
				t.Errorf("Entries %d, want %d", s.Entries, tc.wantEntries)
			}
			if s.Evictions < tc.wantAtLeastE {
				t.Errorf("Evictions %d, want ≥ %d", s.Evictions, tc.wantAtLeastE)
			}
			if s.Entries > s.Capacity && tc.capacity > 0 {
				t.Errorf("entries %d exceed capacity %d", s.Entries, s.Capacity)
			}
		})
	}
}

// TestStatsJSON pins the JSON field names the serving layer publishes.
func TestStatsJSON(t *testing.T) {
	c := newLRU[int](8)
	put(c, "a", 1)
	get(c, "a")
	get(c, "b")
	b, err := json.Marshal(c.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"hits", "misses", "evictions", "entries", "capacity", "shards"} {
		if _, ok := m[k]; !ok {
			t.Errorf("snapshot JSON missing %q: %s", k, b)
		}
	}
}

// TestEvictionAccountingConcurrent checks the eviction counter's exact
// accounting invariant under concurrent Get/Put: with distinct keys,
// every insertion beyond a shard's capacity evicts exactly one entry,
// so insertions == live entries + evictions. Run under -race this also
// exercises the counter/lock interplay on the Put path.
func TestEvictionAccountingConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2000
		capacity   = 64
	)
	c := newSharded[int](capacity, 4)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("g%d-%d", g, i)
				put(c, key, i)
				get(c, key)                          // usually a hit
				get(c, fmt.Sprintf("other-%d-x", i)) // guaranteed miss
			}
		}(g)
	}
	wg.Wait()

	s := c.Stats()
	inserted := uint64(goroutines * perG) // keys are distinct → every Put inserts
	if got := uint64(s.Entries) + s.Evictions; got != inserted {
		t.Fatalf("entries(%d) + evictions(%d) = %d, want %d inserted",
			s.Entries, s.Evictions, got, inserted)
	}
	if s.Entries > s.Capacity {
		t.Fatalf("entries %d exceed capacity %d", s.Entries, s.Capacity)
	}
	if s.Misses < uint64(goroutines*perG) {
		t.Fatalf("misses %d below the guaranteed-miss floor %d", s.Misses, goroutines*perG)
	}
	if s.Hits == 0 {
		t.Fatal("expected some hits from read-back")
	}
}

// TestStatsMonotonicUnderLoad samples Stats concurrently with traffic
// and asserts every counter is non-decreasing between samples.
func TestStatsMonotonicUnderLoad(t *testing.T) {
	c := newLRU[int](128)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				put(c, fmt.Sprintf("g%d-%d", g, i%512), i)
				get(c, fmt.Sprintf("g%d-%d", g, (i+1)%512))
			}
		}(g)
	}
	var prev Stats
	for i := 0; i < 200; i++ {
		s := c.Stats()
		if s.Hits < prev.Hits || s.Misses < prev.Misses || s.Evictions < prev.Evictions {
			t.Fatalf("counter went backwards: %+v after %+v", s, prev)
		}
		prev = s
	}
	close(stop)
	wg.Wait()
}
