package server

// Memo-cache families for GET /metrics. The registry's exposition
// (internal/metrics) renders only HTTP-layer counters and knows
// nothing about the estimator; the cache counters come from
// memo.Stats snapshots taken at scrape time, so they are appended
// here through the registry's text writer (metrics.PromWriter,
// format 0.0.4) rather than registered. One
// snapshot per cache per scrape keeps each family internally
// consistent exactly as far as memo.Stats itself is.
//
// nutriserve_memo_hit_ratio is a derived gauge — hits/(hits+misses)
// computed at scrape from the same snapshot the counter families
// render, so dashboards get the ratio without a PromQL rate quotient
// and loadgen can gate on it directly.

import (
	"io"

	"nutriprofile/internal/memo"
	"nutriprofile/internal/metrics"
)

// memoFamilies drives the exposition: one row per family, each
// reading its value out of a memo.Stats snapshot. Counters first,
// then gauges, names sorted within each group for deterministic
// output.
var memoFamilies = []struct {
	name, help, typ string
	value           func(st memo.Stats) float64
}{
	{"nutriserve_memo_evictions_total", "Entries evicted from the memo cache.", "counter",
		func(st memo.Stats) float64 { return float64(st.Evictions) }},
	{"nutriserve_memo_hits_total", "Memo cache lookup hits.", "counter",
		func(st memo.Stats) float64 { return float64(st.Hits) }},
	{"nutriserve_memo_misses_total", "Memo cache lookup misses.", "counter",
		func(st memo.Stats) float64 { return float64(st.Misses) }},
	{"nutriserve_memo_rejections_total", "Stores the TinyLFU doorkeeper refused: absent keys on their first sighting in an aging period.", "counter",
		func(st memo.Stats) float64 { return float64(st.Rejections) }},
	{"nutriserve_memo_entries", "Entries currently resident in the memo cache.", "gauge",
		func(st memo.Stats) float64 { return float64(st.Entries) }},
	{"nutriserve_memo_hit_ratio", "Lifetime hit ratio, hits/(hits+misses), computed at scrape.", "gauge",
		func(st memo.Stats) float64 { return st.HitRate() }},
}

// writeMemoMetrics renders the memo families for both caches. The
// cache label distinguishes the phrase-level and match-level caches.
func writeMemoMetrics(w io.Writer, phrase, match memo.Stats) error {
	p := metrics.NewPromWriter(w)
	for _, fam := range memoFamilies {
		p.Header(fam.name, fam.help, fam.typ)
		p.Sample(fam.name, "cache", "phrase", fam.value(phrase))
		p.Sample(fam.name, "cache", "match", fam.value(match))
	}
	return p.Flush()
}
