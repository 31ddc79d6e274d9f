package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestReadRuntime: the gauges must be populated and internally
// consistent — a running process has a live heap, cumulative allocation
// at least the live heap, and at least one goroutine.
func TestReadRuntime(t *testing.T) {
	rs := ReadRuntime()
	if rs.HeapAllocBytes == 0 {
		t.Error("HeapAllocBytes = 0")
	}
	if rs.TotalAllocBytes < rs.HeapAllocBytes {
		t.Errorf("TotalAllocBytes %d < HeapAllocBytes %d", rs.TotalAllocBytes, rs.HeapAllocBytes)
	}
	if rs.Mallocs == 0 {
		t.Error("Mallocs = 0")
	}
	if rs.Goroutines < 1 {
		t.Errorf("Goroutines = %d", rs.Goroutines)
	}
	if rs.GCPauseTotalMs < 0 {
		t.Errorf("GCPauseTotalMs = %v", rs.GCPauseTotalMs)
	}
	if rs.HeapSysBytes < rs.HeapInuseBytes {
		t.Errorf("HeapSysBytes %d < HeapInuseBytes %d", rs.HeapSysBytes, rs.HeapInuseBytes)
	}
	if rs.NextGCBytes == 0 {
		t.Error("NextGCBytes = 0")
	}
}

// TestReadRuntimeMonotonic: cumulative counters never decrease between
// samples.
func TestReadRuntimeMonotonic(t *testing.T) {
	a := ReadRuntime()
	_ = make([]byte, 1<<16) // force some allocation between samples
	b := ReadRuntime()
	if b.TotalAllocBytes < a.TotalAllocBytes {
		t.Errorf("TotalAllocBytes decreased: %d → %d", a.TotalAllocBytes, b.TotalAllocBytes)
	}
	if b.Mallocs < a.Mallocs {
		t.Errorf("Mallocs decreased: %d → %d", a.Mallocs, b.Mallocs)
	}
	if b.NumGC < a.NumGC {
		t.Errorf("NumGC decreased: %d → %d", a.NumGC, b.NumGC)
	}
}

// TestRuntimeStatsJSON: the stats endpoint marshals the gauges under
// stable snake_case keys.
func TestRuntimeStatsJSON(t *testing.T) {
	raw, err := json.Marshal(ReadRuntime())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"heap_alloc_bytes", "heap_inuse_bytes", "heap_sys_bytes", "next_gc_bytes",
		"total_alloc_bytes", "mallocs", "num_gc", "gc_pause_total_ms", "goroutines",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("missing JSON key %q in %s", key, raw)
		}
	}
}

// TestRuntimeSamplerTTL drives the sampler on a fake clock and asserts
// the expensive read runs once per TTL window, not once per call.
func TestRuntimeSamplerTTL(t *testing.T) {
	clock := time.Unix(1000, 0)
	reads := 0
	s := NewRuntimeSampler(time.Second)
	s.now = func() time.Time { return clock }
	s.read = func() RuntimeStats { reads++; return RuntimeStats{Mallocs: uint64(reads)} }

	for i := 0; i < 10; i++ {
		if got := s.Sample().Mallocs; got != 1 {
			t.Fatalf("call %d within TTL: snapshot %d, want 1", i, got)
		}
	}
	if reads != 1 {
		t.Fatalf("reads within TTL = %d, want 1", reads)
	}

	clock = clock.Add(999 * time.Millisecond)
	s.Sample()
	if reads != 1 {
		t.Errorf("read refreshed before TTL expired (reads = %d)", reads)
	}

	clock = clock.Add(time.Millisecond) // exactly TTL since last refresh
	if got := s.Sample().Mallocs; got != 2 || reads != 2 {
		t.Errorf("after TTL: snapshot %d reads %d, want 2 and 2", got, reads)
	}
}

// TestRuntimeSamplerConcurrent hammers one sampler from many goroutines
// under the race detector.
func TestRuntimeSamplerConcurrent(t *testing.T) {
	s := NewRuntimeSampler(time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if s.Sample().Goroutines < 1 {
					t.Error("empty snapshot")
					return
				}
			}
		}()
	}
	wg.Wait()
}
