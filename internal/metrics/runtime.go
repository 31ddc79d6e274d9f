package metrics

import (
	"io"
	"runtime"
	"sync"
	"time"
)

// RuntimeStats is a point-in-time view of the Go runtime's memory and
// scheduler gauges — the numbers that tell an operator whether the
// allocation-free pipeline is actually running allocation-free in
// production. Marshals directly to JSON for GET /v1/stats.
type RuntimeStats struct {
	// HeapAllocBytes is bytes of allocated heap objects
	// (runtime.MemStats.HeapAlloc): the live heap plus garbage the
	// collector has not yet swept, so between cycles it reads above
	// the live heap.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// HeapInuseBytes is heap memory in in-use spans.
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	// HeapSysBytes is heap memory obtained from the OS, in use or idle
	// (runtime.MemStats.HeapSys).
	HeapSysBytes uint64 `json:"heap_sys_bytes"`
	// NextGCBytes is the heap size at which the next GC cycle starts
	// (runtime.MemStats.NextGC). Under GOGC=100 it is about twice the
	// heap the last cycle found live, and peak RSS follows it.
	NextGCBytes uint64 `json:"next_gc_bytes"`
	// TotalAllocBytes is cumulative bytes allocated over the process
	// lifetime (monotonic; the first derivative is the allocation rate).
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// Mallocs is the cumulative count of heap objects allocated.
	Mallocs uint64 `json:"mallocs"`
	// NumGC is the number of completed GC cycles.
	NumGC uint32 `json:"num_gc"`
	// GCPauseTotalMs is the cumulative stop-the-world pause time.
	GCPauseTotalMs float64 `json:"gc_pause_total_ms"`
	// Goroutines is the current goroutine count.
	Goroutines int `json:"goroutines"`
}

// ReadRuntime samples the runtime gauges. It calls
// runtime.ReadMemStats, which briefly stops the world — cheap enough for
// a stats endpoint, too expensive for a per-request path.
func ReadRuntime() RuntimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return RuntimeStats{
		HeapAllocBytes:  m.HeapAlloc,
		HeapInuseBytes:  m.HeapInuse,
		HeapSysBytes:    m.HeapSys,
		NextGCBytes:     m.NextGC,
		TotalAllocBytes: m.TotalAlloc,
		Mallocs:         m.Mallocs,
		NumGC:           m.NumGC,
		GCPauseTotalMs:  float64(m.PauseTotalNs) / 1e6,
		Goroutines:      runtime.NumGoroutine(),
	}
}

// RuntimeSampler caches ReadRuntime behind a TTL so a hot stats
// endpoint stops the world at most once per interval no matter how
// often it is scraped. Construct with NewRuntimeSampler; safe for
// concurrent use.
type RuntimeSampler struct {
	ttl time.Duration

	// Seams for tests; NewRuntimeSampler wires the real clock and reader.
	now  func() time.Time
	read func() RuntimeStats

	mu   sync.Mutex
	last time.Time
	snap RuntimeStats
}

// NewRuntimeSampler builds a sampler that refreshes at most once per
// ttl; ttl <= 0 samples on every call.
func NewRuntimeSampler(ttl time.Duration) *RuntimeSampler {
	return &RuntimeSampler{ttl: ttl, now: time.Now, read: ReadRuntime}
}

// Sample returns the cached snapshot, refreshing it first when older
// than the TTL.
func (s *RuntimeSampler) Sample() RuntimeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := s.now(); s.last.IsZero() || now.Sub(s.last) >= s.ttl {
		s.snap = s.read()
		s.last = now
	}
	return s.snap
}

// WriteRuntimePrometheus renders rs's heap gauges in Prometheus text
// format, for a /metrics handler to append after the registry's
// families. Pass it a RuntimeSampler's snapshot, so scrapes stop the
// world no more often than /v1/stats reads do.
func WriteRuntimePrometheus(w io.Writer, rs RuntimeStats) error {
	p := NewPromWriter(w)
	p.Header("nutriserve_go_heap_alloc_bytes", "Bytes of allocated heap objects, live and not yet swept (runtime.MemStats.HeapAlloc).", "gauge")
	p.str("nutriserve_go_heap_alloc_bytes ")
	p.uint(rs.HeapAllocBytes)
	p.str("\n")
	p.Header("nutriserve_go_next_gc_bytes", "Heap size at which the next GC cycle starts (runtime.MemStats.NextGC); peak RSS follows it.", "gauge")
	p.str("nutriserve_go_next_gc_bytes ")
	p.uint(rs.NextGCBytes)
	p.str("\n")
	return p.Flush()
}
