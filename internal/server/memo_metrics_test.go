package server

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"nutriprofile/internal/memo"
)

// memoSample is one parsed exposition line of a memo family.
type memoSample struct {
	name  string
	cache string
	value float64
}

// parseMemoExposition strictly parses the full /metrics body and
// returns the nutriserve_memo_* samples: every sample line must
// belong to the family block its HELP/TYPE headers opened (0.0.4
// ordering), memo families must declare counter or gauge types, and
// every memo sample must carry exactly a cache label.
func parseMemoExposition(t *testing.T, text string) map[string]memoSample {
	t.Helper()
	samples := map[string]memoSample{}
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
			if strings.HasPrefix(name, "nutriserve_memo_") && typ != "counter" && typ != "gauge" {
				fail("memo family %s has type %q", name, typ)
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
		if !strings.HasPrefix(name, "nutriserve_memo_") {
			continue
		}
		// Memo samples are exactly name{cache="<phrase|match>"} value.
		rest := strings.TrimPrefix(line, name)
		if !strings.HasPrefix(rest, `{cache="`) {
			fail("memo sample missing cache label")
		}
		rest = strings.TrimPrefix(rest, `{cache="`)
		cache, rest, ok := strings.Cut(rest, `"} `)
		if !ok || (cache != "phrase" && cache != "match") {
			fail("malformed memo sample or unknown cache %q", cache)
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			fail("unparseable value: %v", err)
		}
		samples[name+"/"+cache] = memoSample{name: name, cache: cache, value: v}
	}
	return samples
}

// TestMemoMetricsExposition drives traffic through a live server and
// checks the scraped memo families against the estimator's own
// CacheStats snapshot: every family present for both caches, counter
// values matching, and the derived hit-ratio gauge equal to
// hits/(hits+misses) of the very same scrape.
func TestMemoMetricsExposition(t *testing.T) {
	s := newTestServer(t, nil)
	// Repeat phrases so the phrase cache records both misses and hits.
	for i := 0; i < 3; i++ {
		w := postJSON(t, s.Handler(), "/v1/estimate", `{"phrase":"2 cups flour"}`)
		if w.Code != 200 {
			t.Fatalf("estimate status %d", w.Code)
		}
	}
	postJSON(t, s.Handler(), "/v1/estimate", `{"phrase":"1 tbsp olive oil"}`)

	w := getPath(t, s.Handler(), "/metrics")
	if w.Code != 200 {
		t.Fatalf("/metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	samples := parseMemoExposition(t, w.Body.String())

	phrase, match := s.est.CacheStats()
	for _, c := range []struct {
		label string
		st    memo.Stats
	}{{"phrase", phrase}, {"match", match}} {
		wantCounters := map[string]float64{
			"nutriserve_memo_hits_total":       float64(c.st.Hits),
			"nutriserve_memo_misses_total":     float64(c.st.Misses),
			"nutriserve_memo_evictions_total":  float64(c.st.Evictions),
			"nutriserve_memo_rejections_total": float64(c.st.Rejections),
			"nutriserve_memo_entries":          float64(c.st.Entries),
		}
		for name, want := range wantCounters {
			got, ok := samples[name+"/"+c.label]
			if !ok {
				t.Errorf("family %s missing cache=%q sample", name, c.label)
				continue
			}
			if got.value != want {
				t.Errorf("%s{cache=%q} = %v, want %v", name, c.label, got.value, want)
			}
		}
		ratio, ok := samples["nutriserve_memo_hit_ratio/"+c.label]
		if !ok {
			t.Fatalf("hit_ratio gauge missing for cache=%q", c.label)
		}
		// The gauge must be derived from the same snapshot the counter
		// lines render — recompute it from the scraped lines, not from
		// a second CacheStats call.
		hits := samples["nutriserve_memo_hits_total/"+c.label].value
		misses := samples["nutriserve_memo_misses_total/"+c.label].value
		want := 0.0
		if hits+misses > 0 {
			want = hits / (hits + misses)
		}
		if math.Abs(ratio.value-want) > 1e-12 {
			t.Errorf("hit_ratio{cache=%q} = %v, want %v from the scrape's own counters", c.label, ratio.value, want)
		}
	}
	// The traffic above guarantees phrase-cache activity.
	if samples["nutriserve_memo_hits_total/phrase"].value == 0 {
		t.Error("no phrase hits recorded — repeat estimate did not hit the cache")
	}
	if samples["nutriserve_memo_hit_ratio/phrase"].value <= 0 {
		t.Error("phrase hit_ratio not positive after repeat traffic")
	}
}
