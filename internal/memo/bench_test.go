package memo

import (
	"fmt"
	"testing"

	"nutriprofile/internal/recipedb"
)

// BenchmarkMemoZipf measures the cache under the workload that
// dominates production serving: Zipf-skewed phrase lookups, the core
// estimator's exact get-on-miss-put pattern. ns/op gates the lookup
// path's cost (the doorkeeper must stay one probe run per lookup);
// the hit_ratio metric is the policy's payoff, captured into
// BENCH_match.json by the bench harness. Sub-benchmarks cover both
// policies at s=1.1 (production-like skew) and the LRU-favorable
// uniform shape (s=0) that pins the no-regression floor.
func BenchmarkMemoZipf(b *testing.B) {
	const (
		capacity = 4096
		keyspace = 131072
		traceLen = 1 << 18
	)
	keys := make([][]byte, keyspace)
	hashes := make([]uint64, keyspace)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "phrase-%06d", i)
		hashes[i] = Hash(keys[i])
	}
	for _, s := range []float64{1.1, 0} {
		z := recipedb.NewZipf(keyspace, s, 42)
		trace := make([]int, traceLen)
		for i := range trace {
			trace[i] = z.Next()
		}
		name := fmt.Sprintf("s%.1f", s)
		for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
			b.Run(name+"/"+p.String(), func(b *testing.B) {
				c := NewPolicy[int](capacity, DefaultShards, p)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := trace[i&(traceLen-1)]
					if c.GetBytesHashRef(hashes[k], keys[k]) == nil {
						c.PutHashGen(hashes[k], keys[k], k, c.Gen())
					}
				}
				b.StopTimer()
				b.ReportMetric(c.Stats().HitRate(), "hit_ratio")
			})
		}
	}
}

// BenchmarkMemoGetHit pins the warm single-hit cost for both
// policies side by side — the per-lookup price of the doorkeeper.
func BenchmarkMemoGetHit(b *testing.B) {
	for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
		b.Run(p.String(), func(b *testing.B) {
			c := NewPolicy[int](1024, DefaultShards, p)
			keys := make([][]byte, 512)
			hashes := make([]uint64, 512)
			for i := range keys {
				keys[i] = fmt.Appendf(nil, "k%03d", i)
				hashes[i] = Hash(keys[i])
				putSeen(c, string(keys[i]), i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i & 511
				c.GetBytesHashRef(hashes[k], keys[k])
			}
		})
	}
}
