package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nutriprofile/internal/core"
	"nutriprofile/internal/usda"
)

// newTestServer builds a Server over the seed DB with caching enabled
// and any overrides applied to the default test config.
func newTestServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	est, err := core.New(usda.Seed(), nil, core.Options{CacheSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Estimator: est}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// decodeErrorBody asserts a response is a well-formed structured error.
func decodeErrorBody(t *testing.T, w *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("non-200 body is not an ErrorBody: %v (body %q)", err, w.Body.String())
	}
	if eb.Error.Code == "" || eb.Error.Message == "" || eb.Error.Status != w.Code {
		t.Fatalf("malformed error body %+v for status %d", eb, w.Code)
	}
	return eb
}

func TestEstimateRoute(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	w := postJSON(t, h, "/v1/estimate", `{"phrase":"2 cups all-purpose flour"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var resp EstimateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Matched || !resp.Mapped {
		t.Fatalf("expected flour to map fully: %+v", resp)
	}
	if resp.Grams <= 0 || resp.Profile.EnergyKcal <= 0 {
		t.Fatalf("expected positive grams and energy: %+v", resp)
	}
	// The response must agree with a direct pipeline call.
	direct := s.est.EstimateIngredient("2 cups all-purpose flour")
	if resp.Grams != direct.Grams || resp.Profile != direct.Profile || resp.NDB != direct.Match.NDB {
		t.Fatalf("HTTP result diverges from direct pipeline: %+v vs %+v", resp, direct)
	}
}

func TestEstimateErrors(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"invalid json", `{`, http.StatusBadRequest, "bad_json"},
		{"wrong type", `{"phrase": 7}`, http.StatusBadRequest, "bad_json"},
		{"unknown field", `{"phrase":"salt","extra":1}`, http.StatusBadRequest, "bad_json"},
		{"empty phrase", `{"phrase":"  "}`, http.StatusBadRequest, "empty_phrase"},
		{"empty body", ``, http.StatusBadRequest, "bad_json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, h, "/v1/estimate", tc.body)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d (body %s)", w.Code, tc.status, w.Body.String())
			}
			if eb := decodeErrorBody(t, w); eb.Error.Code != tc.code {
				t.Fatalf("code %q, want %q", eb.Error.Code, tc.code)
			}
		})
	}
}

func TestRecipeRoute(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	body := `{"ingredients":["2 cups all-purpose flour","1 cup sugar","2 eggs"],"servings":4,"method":"baked"}`
	w := postJSON(t, h, "/v1/recipe", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var resp RecipeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Servings != 4 || resp.Method != "baked" || len(resp.Ingredients) != 3 {
		t.Fatalf("unexpected shape: %+v", resp)
	}
	if resp.MappedFraction != 1 {
		t.Fatalf("expected full mapping, got %v", resp.MappedFraction)
	}
	if got := resp.PerServing.EnergyKcal * 4; got < resp.Total.EnergyKcal*0.999 || got > resp.Total.EnergyKcal*1.001 {
		t.Fatalf("per-serving does not scale to total: %v vs %v", got, resp.Total.EnergyKcal)
	}
}

func TestRecipeErrors(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	cases := []struct {
		name, body string
		code       string
	}{
		{"no ingredients", `{"ingredients":[]}`, "no_ingredients"},
		{"negative servings", `{"ingredients":["salt"],"servings":-2}`, "bad_servings"},
		{"unknown method", `{"ingredients":["salt"],"method":"sous-vide"}`, "bad_method"},
		{"bad json", `[1,2`, "bad_json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, h, "/v1/recipe", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", w.Code, w.Body.String())
			}
			if eb := decodeErrorBody(t, w); eb.Error.Code != tc.code {
				t.Fatalf("code %q, want %q", eb.Error.Code, tc.code)
			}
		})
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 256 })
	h := s.Handler()
	big := `{"phrase":"` + strings.Repeat("a", 1024) + `"}`
	w := postJSON(t, h, "/v1/estimate", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", w.Code, w.Body.String())
	}
	if eb := decodeErrorBody(t, w); eb.Error.Code != "body_too_large" {
		t.Fatalf("code %q", eb.Error.Code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	w := getPath(t, h, "/v1/estimate")
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on estimate: status %d", w.Code)
	}
}

// TestAdmissionShed holds the only admission slot open and asserts the
// next request is shed with 429 + Retry-After instead of queuing.
func TestAdmissionShed(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.RetryAfter = 3 * time.Second
	})
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once bool
	s.testHookAdmitted = func(string) {
		if !once {
			once = true
			close(admitted)
			<-release
		}
	}
	h := s.Handler()

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { firstDone <- postJSON(t, h, "/v1/estimate", `{"phrase":"salt"}`) }()
	<-admitted

	// Slot is held: this request must be rejected immediately.
	w := postJSON(t, h, "/v1/estimate", `{"phrase":"sugar"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", ra)
	}
	if eb := decodeErrorBody(t, w); eb.Error.Code != "overloaded" {
		t.Fatalf("code %q", eb.Error.Code)
	}
	if got := s.Registry().Shed(); got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}

	close(release)
	if w := <-firstDone; w.Code != http.StatusOK {
		t.Fatalf("held request finished %d", w.Code)
	}

	// Slot free again: traffic flows.
	if w := postJSON(t, h, "/v1/estimate", `{"phrase":"salt"}`); w.Code != http.StatusOK {
		t.Fatalf("post-release status %d", w.Code)
	}
}

// TestStatsBypassAdmission saturates the semaphore and asserts probes
// still answer.
func TestStatsBypassAdmission(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })
	// Fill the semaphore directly; no request holds it, so this models
	// a fully saturated pipeline.
	s.sem <- struct{}{}
	h := s.Handler()
	if w := getPath(t, h, "/v1/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", w.Code)
	}
	if w := getPath(t, h, "/v1/stats"); w.Code != http.StatusOK {
		t.Fatalf("stats under saturation: %d", w.Code)
	}
	if w := postJSON(t, h, "/v1/estimate", `{"phrase":"salt"}`); w.Code != http.StatusTooManyRequests {
		t.Fatalf("estimate under saturation: %d, want 429", w.Code)
	}
}

func TestHealthzAndStatsShape(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	w := getPath(t, h, "/v1/healthz")
	var hz HealthzResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Foods <= 0 {
		t.Fatalf("healthz %+v", hz)
	}

	// Generate some traffic, then check the stats surface reflects it.
	postJSON(t, h, "/v1/estimate", `{"phrase":"2 cups flour"}`)
	postJSON(t, h, "/v1/estimate", `{"phrase":"2 cups flour"}`)
	postJSON(t, h, "/v1/estimate", `{"phrase":"not json`)

	w = getPath(t, h, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats status %d", w.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Matcher.Docs <= 0 || st.Matcher.VocabSize <= 0 {
		t.Fatalf("matcher stats empty: %+v", st.Matcher)
	}
	if st.Memo.Phrase.Hits < 1 {
		t.Fatalf("expected a phrase-cache hit from the repeated phrase: %+v", st.Memo.Phrase)
	}
	if st.Memo.Phrase.Capacity <= 0 || st.Memo.Phrase.Shards <= 0 {
		t.Fatalf("memo snapshot missing shape: %+v", st.Memo.Phrase)
	}
	if !strings.Contains(w.Body.String(), `"shard":{"phrases":`) {
		t.Fatalf("stats body lacks the shard block's phrase count: %s", w.Body.String())
	}
	est := st.HTTP.Routes["/v1/estimate"]
	if est.Requests != 3 || est.ByClass["2xx"] != 2 || est.ByClass["4xx"] != 1 {
		t.Fatalf("estimate route metrics %+v", est)
	}
	if est.Latency.Count != 3 {
		t.Fatalf("latency count %d, want 3", est.Latency.Count)
	}
	if st.Runtime.HeapAllocBytes == 0 || st.Runtime.TotalAllocBytes == 0 || st.Runtime.Goroutines <= 0 ||
		st.Runtime.NextGCBytes == 0 || st.Runtime.HeapSysBytes == 0 {
		t.Fatalf("runtime gauges empty: %+v", st.Runtime)
	}
	for _, key := range []string{`"next_gc_bytes":`, `"heap_sys_bytes":`} {
		if !strings.Contains(w.Body.String(), key) {
			t.Fatalf("stats runtime block lacks %s: %s", key, w.Body.String())
		}
	}
	// /metrics carries the heap gauges from the same sampler.
	w = getPath(t, h, "/metrics")
	for _, fam := range []string{"nutriserve_go_heap_alloc_bytes ", "nutriserve_go_next_gc_bytes "} {
		if !strings.Contains(w.Body.String(), "\n"+fam) {
			t.Fatalf("/metrics lacks a %q sample:\n%s", fam, w.Body.String())
		}
	}

	// shard.phrases counts every estimated phrase, whichever route sent
	// it: each runs on one of the estimator's worker environments.
	phrases := func() uint64 {
		t.Helper()
		var st StatsResponse
		if err := json.Unmarshal(getPath(t, h, "/v1/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Shard.Phrases
	}
	traffic := []struct {
		name    string
		send    func()
		phrases uint64
	}{
		{"three estimates", func() {
			for _, p := range []string{"2 cups flour", "2 cups flour", "1 small onion , finely chopped"} {
				postJSON(t, h, "/v1/estimate", `{"phrase":"`+p+`"}`)
			}
		}, 3},
		{"a two-line recipe", func() {
			postJSON(t, h, "/v1/recipe", `{"ingredients":["2 cups flour","2 eggs"],"servings":2}`)
		}, 2},
		{"a batch stream", func() {
			postBatch(t, h, `{"phrase":"2 cups flour"}`+"\n"+`{"ingredients":["2 cups flour","2 eggs"]}`+"\n")
		}, 3},
	}
	for _, tc := range traffic {
		before := phrases()
		tc.send()
		if got := phrases() - before; got != tc.phrases {
			t.Errorf("shard.phrases advanced by %d on %s, want %d", got, tc.name, tc.phrases)
		}
	}
}

// TestRequestTimeout deadlines a many-ingredient recipe with a
// one-nanosecond budget; the response must be a structured 504 and the
// cancellation must propagate into core (no result computed).
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	h := s.Handler()
	phrases := make([]string, 64)
	for i := range phrases {
		phrases[i] = "2 cups flour"
	}
	body, _ := json.Marshal(RecipeRequest{Ingredients: phrases})
	w := postJSON(t, h, "/v1/recipe", string(body))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", w.Code, w.Body.String())
	}
	if eb := decodeErrorBody(t, w); eb.Error.Code != "timeout" {
		t.Fatalf("code %q", eb.Error.Code)
	}
}

// TestGracefulDrain starts a real listener, parks a request mid-flight,
// cancels the serve context, and asserts (a) the in-flight request
// completes 200 during the drain and (b) Serve returns nil (clean
// drain) without accepting new connections.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, nil)
	inflight := make(chan struct{})
	release := make(chan struct{})
	var first bool
	s.testHookAdmitted = func(string) {
		if !first {
			first = true
			close(inflight)
			<-release
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, 5*time.Second) }()

	resp := make(chan int, 1)
	go func() {
		r, err := http.Post("http://"+addr+"/v1/estimate", "application/json",
			bytes.NewReader([]byte(`{"phrase":"2 cups flour"}`)))
		if err != nil {
			resp <- -1
			return
		}
		r.Body.Close()
		resp <- r.StatusCode
	}()
	<-inflight

	cancel() // begin graceful shutdown with the request still parked
	// Give Shutdown a moment to close the listener, then release the
	// parked request; it must still complete.
	time.Sleep(50 * time.Millisecond)
	close(release)

	if code := <-resp; code != http.StatusOK {
		t.Fatalf("in-flight request during drain got %d, want 200", code)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil after clean drain", err)
	}
	// The listener must be closed now.
	if _, err := http.Get("http://" + addr + "/v1/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}
