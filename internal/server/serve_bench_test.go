package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"nutriprofile/internal/core"
	"nutriprofile/internal/usda"
)

// The serve benchmarks are the load-bench harness: they drive the real
// handler stack (mux → middleware → pooled codec → pipeline) with the
// golden-corpus workload and report throughput plus p50/p99 latency, so
// the nightly bench-compare gate catches serving-layer regressions the
// micro-benchmarks cannot see. The `hot` variants isolate the pooled
// per-request path the zero-allocation criterion applies to.

// newBenchServer mirrors newTestServer for benchmarks: seed DB, a cache
// big enough that the corpus stays warm, no access log.
func newBenchServer(b *testing.B) *Server {
	b.Helper()
	est, err := core.New(usda.Seed(), nil, core.Options{CacheSize: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Estimator: est})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchCorpus loads the golden corpus' request side for benchmarks.
func benchCorpus(b *testing.B) []RecipeRequest {
	b.Helper()
	raw, err := os.ReadFile("testdata/corpus.json")
	if err != nil {
		b.Fatal(err)
	}
	var doc struct {
		Recipes []struct {
			Servings    int      `json:"servings"`
			Method      string   `json:"method"`
			Ingredients []string `json:"ingredients"`
		} `json:"recipes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		b.Fatal(err)
	}
	out := make([]RecipeRequest, len(doc.Recipes))
	for i, r := range doc.Recipes {
		out[i] = RecipeRequest{Ingredients: r.Ingredients, Servings: r.Servings, Method: r.Method}
	}
	return out
}

// nullWriter is the cheapest possible ResponseWriter: the benchmark
// measures the serving stack, not httptest's body recorder.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(code int)        { w.status = code }

// benchRequest is one pre-built request the harness can replay: the
// body reader is rewound and re-attached every iteration because the
// middleware wraps Body in a fresh MaxBytesReader per request.
type benchRequest struct {
	req  *http.Request
	body *bytes.Reader
}

func newBenchRequest(path string, body []byte) benchRequest {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, path, rd)
	req.Header.Set("Content-Type", "application/json")
	return benchRequest{req: req, body: rd}
}

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

// replay runs reqs round-robin through h for b.N iterations, recording
// per-request wall time, and reports p50/p99 latency.
func replay(b *testing.B, h http.Handler, reqs []benchRequest) {
	lat := make([]time.Duration, 0, b.N)
	w := &nullWriter{h: make(http.Header, 4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := &reqs[i%len(reqs)]
		br.body.Seek(0, io.SeekStart)
		br.req.Body = readCloser{br.body}
		w.status = 0
		start := time.Now()
		h.ServeHTTP(w, br.req)
		lat = append(lat, time.Since(start))
		if w.status != 0 && w.status != http.StatusOK {
			b.Fatalf("request %d: status %d", i, w.status)
		}
	}
	b.StopTimer()
	reportPercentiles(b, lat)
}

func reportPercentiles(b *testing.B, lat []time.Duration) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return float64(lat[i]) / float64(time.Millisecond)
	}
	b.ReportMetric(pct(0.50), "p50_ms")
	b.ReportMetric(pct(0.99), "p99_ms")
}

// BenchmarkServeEstimate drives /v1/estimate with every distinct
// corpus phrase. `full` is the whole stack including middleware;
// `hot` is the pooled per-request path the 0 allocs/op gate covers.
func BenchmarkServeEstimate(b *testing.B) {
	s := newBenchServer(b)
	var bodies [][]byte
	seen := map[string]bool{}
	for _, rec := range benchCorpus(b) {
		for _, phrase := range rec.Ingredients {
			if seen[phrase] {
				continue
			}
			seen[phrase] = true
			body, err := json.Marshal(EstimateRequest{Phrase: phrase})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}

	b.Run("full", func(b *testing.B) {
		h := s.Handler()
		reqs := make([]benchRequest, len(bodies))
		for i, body := range bodies {
			reqs[i] = newBenchRequest("/v1/estimate", body)
		}
		replay(b, h, reqs)
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "phrases/s")
	})

	b.Run("hot", func(b *testing.B) {
		bs := getBatchScratch()
		defer putBatchScratch(bs)
		ctx := context.Background()
		readers := make([]*bytes.Reader, len(bodies))
		for i, body := range bodies {
			readers[i] = bytes.NewReader(body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(bodies)
			readers[j].Seek(0, io.SeekStart)
			status, out := s.answer(bs, ctx, readers[j], estimateGrammar)
			if status != http.StatusOK || len(out) == 0 {
				b.Fatalf("status %d, %d body bytes", status, len(out))
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "phrases/s")
	})
}

// BenchmarkServeRecipe drives /v1/recipe with the 25 golden recipes.
// phrases/s counts ingredient phrases so the number is comparable with
// BenchmarkServeEstimate and BenchmarkEstimateBatch.
func BenchmarkServeRecipe(b *testing.B) {
	s := newBenchServer(b)
	recipes := benchCorpus(b)
	bodies := make([][]byte, len(recipes))
	var phrases int
	for i, rec := range recipes {
		body, err := json.Marshal(rec)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
		phrases += len(rec.Ingredients)
	}
	meanPhrases := float64(phrases) / float64(len(recipes))

	b.Run("full", func(b *testing.B) {
		h := s.Handler()
		reqs := make([]benchRequest, len(bodies))
		for i, body := range bodies {
			reqs[i] = newBenchRequest("/v1/recipe", body)
		}
		replay(b, h, reqs)
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recipes/s")
		b.ReportMetric(meanPhrases*float64(b.N)/b.Elapsed().Seconds(), "phrases/s")
	})

	b.Run("hot", func(b *testing.B) {
		bs := getBatchScratch()
		defer putBatchScratch(bs)
		ctx := context.Background()
		readers := make([]*bytes.Reader, len(bodies))
		for i, body := range bodies {
			readers[i] = bytes.NewReader(body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(bodies)
			readers[j].Seek(0, io.SeekStart)
			status, out := s.answer(bs, ctx, readers[j], recipeGrammar)
			if status != http.StatusOK || len(out) == 0 {
				b.Fatalf("status %d, %d body bytes", status, len(out))
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recipes/s")
		b.ReportMetric(meanPhrases*float64(b.N)/b.Elapsed().Seconds(), "phrases/s")
	})
}
