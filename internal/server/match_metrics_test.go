package server

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// parseMatchExposition strictly parses the full /metrics body and
// returns the nutriserve_match_* samples: every sample line must
// belong to the family block its HELP/TYPE headers opened (0.0.4
// ordering), match families must declare counter or gauge types, and
// every match sample must be bare `name value` — the matcher families
// carry no labels (one matcher per snapshot).
func parseMatchExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	var lastHelp, current, currentTyp string
	for ln, line := range strings.Split(text, "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d (%q): %s", ln+1, line, fmt.Sprintf(format, args...))
		}
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" || help == "" {
				fail("malformed HELP")
			}
			lastHelp = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name != lastHelp {
				fail("TYPE not immediately preceded by its HELP")
			}
			if strings.HasPrefix(name, "nutriserve_match_") && typ != "counter" && typ != "gauge" {
				fail("match family %s has type %q", name, typ)
			}
			current, currentTyp = name, typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			fail("unexpected comment")
		}
		if current == "" {
			fail("sample before any family header")
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := name
		if currentTyp == "histogram" {
			base = strings.TrimSuffix(base, "_bucket")
			base = strings.TrimSuffix(base, "_sum")
			base = strings.TrimSuffix(base, "_count")
		}
		if base != current {
			fail("sample %s outside its family block (current %s)", name, current)
		}
		if !strings.HasPrefix(name, "nutriserve_match_") {
			continue
		}
		// Match samples are exactly `name value` — no labels.
		rest := strings.TrimPrefix(line, name)
		if !strings.HasPrefix(rest, " ") || strings.Contains(line, "{") {
			fail("match sample not in bare name-value form")
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(rest, " "), 64)
		if err != nil {
			fail("unparseable value: %v", err)
		}
		if _, dup := samples[name]; dup {
			fail("duplicate match sample %s", name)
		}
		samples[name] = v
	}
	return samples
}

// TestMatchMetricsExposition drives cache-missing traffic through a
// live server and checks the scraped nutriserve_match_* families
// against the estimator's own MatcherStats snapshot: every family
// present exactly once, values matching, and the prune counters
// actually moving under ranking traffic.
func TestMatchMetricsExposition(t *testing.T) {
	s := newTestServer(t, nil)
	// Distinct multi-word phrases: every one is a phrase-cache miss that
	// reaches the ranking engine, so the prune counters must move.
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"phrase":"%d cups raw whole milk"}`, i+1)
		if w := postJSON(t, s.Handler(), "/v1/estimate", body); w.Code != 200 {
			t.Fatalf("estimate status %d", w.Code)
		}
	}

	w := getPath(t, s.Handler(), "/metrics")
	if w.Code != 200 {
		t.Fatalf("/metrics status %d", w.Code)
	}
	samples := parseMatchExposition(t, w.Body.String())

	st := s.est.MatcherStats()
	want := map[string]float64{
		"nutriserve_match_pool_gets_total":              float64(st.PoolGets),
		"nutriserve_match_pool_misses_total":            float64(st.PoolMisses),
		"nutriserve_match_prune_docs_dropped_total":     float64(st.PruneDocsDropped),
		"nutriserve_match_prune_gather_exits_total":     float64(st.PruneGatherExits),
		"nutriserve_match_prune_postings_avoided_total": float64(st.PrunePostingsAvoided),
		"nutriserve_match_prune_terms_skipped_total":    float64(st.PruneTermsSkipped),
		"nutriserve_match_docs":                         float64(st.Docs),
		"nutriserve_match_posting_entries":              float64(st.PostingEntries),
		"nutriserve_match_vocab_size":                   float64(st.VocabSize),
	}
	if len(samples) != len(want) {
		t.Errorf("scraped %d match samples, want %d", len(samples), len(want))
	}
	for name, wv := range want {
		got, ok := samples[name]
		if !ok {
			t.Errorf("family %s missing from scrape", name)
			continue
		}
		if got != wv {
			t.Errorf("%s = %v, want %v", name, got, wv)
		}
	}
	// Ranking traffic ran, so the engine must have reported real work
	// and real avoidance: index gauges nonzero, at least one query
	// ranked, and the pruned engine's headline counter moving.
	if samples["nutriserve_match_docs"] == 0 || samples["nutriserve_match_vocab_size"] == 0 {
		t.Error("index-shape gauges are zero on a live server")
	}
	if samples["nutriserve_match_pool_gets_total"] == 0 {
		t.Error("no ranking queries recorded after estimate traffic")
	}
	if samples["nutriserve_match_prune_docs_dropped_total"] == 0 {
		t.Error("prune_docs_dropped_total = 0: the bar tests never fired under ranking traffic")
	}
}
