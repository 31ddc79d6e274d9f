package server

// Matcher-engine families for GET /metrics, appended after the memo
// families through the same metrics.PromWriter (see memo_metrics.go
// for why these are snapshotted at scrape time rather than
// registered). The prune counters expose the candidate-pruned
// ranking engine's work avoidance — postings never walked, candidates
// skipped by the selection bar, gather→update transitions — so a ±10%
// regression in pruning effectiveness is visible on a dashboard long
// before it shows up as cold-batch latency. One MatcherStats snapshot
// per scrape; the families carry no labels (there is one matcher per
// snapshot).

import (
	"io"

	"nutriprofile/internal/match"
	"nutriprofile/internal/metrics"
)

// matchFamilies drives the exposition: counters first, then gauges,
// names sorted within each group for deterministic output.
var matchFamilies = []struct {
	name, help, typ string
	value           func(st match.MatcherStats) float64
}{
	{"nutriserve_match_pool_gets_total", "Scoring arenas checked out of the matcher's pool: one per match session a worker environment opens, plus one per pooled Match/Rank call.", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PoolGets) }},
	{"nutriserve_match_pool_misses_total", "Arena checkouts that allocated instead of reusing a pooled arena.", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PoolMisses) }},
	{"nutriserve_match_prune_docs_dropped_total", "Candidates skipped by the exact final selection bar.", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PruneDocsDropped) }},
	{"nutriserve_match_prune_gather_exits_total", "Queries whose gather phase ended early (gather-to-update transition).", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PruneGatherExits) }},
	{"nutriserve_match_prune_postings_avoided_total", "Posting entries never walked because the candidate set emptied.", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PrunePostingsAvoided) }},
	{"nutriserve_match_prune_terms_skipped_total", "Scheduled terms skipped outright (empty candidate set).", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PruneTermsSkipped) }},
	{"nutriserve_match_docs", "Documents (food descriptions) in the live scoring index.", "gauge",
		func(st match.MatcherStats) float64 { return float64(st.Docs) }},
	{"nutriserve_match_posting_entries", "Total posting entries in the live scoring index.", "gauge",
		func(st match.MatcherStats) float64 { return float64(st.PostingEntries) }},
	{"nutriserve_match_vocab_size", "Distinct terms in the live scoring index's vocabulary.", "gauge",
		func(st match.MatcherStats) float64 { return float64(st.VocabSize) }},
}

// writeMatchMetrics renders the matcher families from one stats
// snapshot.
func writeMatchMetrics(w io.Writer, st match.MatcherStats) error {
	p := metrics.NewPromWriter(w)
	for _, fam := range matchFamilies {
		p.Header(fam.name, fam.help, fam.typ)
		p.Sample(fam.name, "", "", fam.value(st))
	}
	return p.Flush()
}
