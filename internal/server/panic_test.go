package server

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nutriprofile/internal/core"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/usda"
)

// panicMarker is the token on which panicTagger panics.
const panicMarker = "zqpanic"

// panicTagger is the rule tagger, except that it panics on a phrase
// holding panicMarker: a stand-in for a defect in the NER stage.
type panicTagger struct{ inner ner.RuleTagger }

func (p panicTagger) TagScratch(tokens []string, sc *ner.Scratch) []ner.Label {
	for _, tok := range tokens {
		if tok == panicMarker {
			panic("panicTagger: marker token")
		}
	}
	return p.inner.TagScratch(tokens, sc)
}

// TestRecipePanicContained: a stage that panics while an interactive
// request is estimated costs that request its connection, not the
// process. /v1/recipe runs its lines, and /v1/estimate its phrase, on the
// request goroutine, where net/http recovers a handler panic and closes
// the connection. The middleware's deferred accounting still runs: the
// in-flight gauge and the admission semaphore drain, the request counts
// as a 5xx rather than the 200 an unwritten status would default to, and
// the server keeps answering correctly on a fresh connection.
func TestRecipePanicContained(t *testing.T) {
	est, err := core.New(usda.Seed(), panicTagger{}, core.Options{CacheSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's stack
	ts.Start()
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()
	reference := newTestServer(t, nil).Handler()

	for _, tc := range []struct {
		route, poisoned, good string
	}{
		{
			"/v1/recipe",
			`{"ingredients":["2 cups flour","1 ` + panicMarker + ` onion , chopped","2 eggs"],"servings":4}`,
			`{"ingredients":["2 cups flour","1 onion , chopped","2 eggs"],"servings":4}`,
		},
		{
			"/v1/estimate",
			`{"phrase":"1 ` + panicMarker + ` onion , chopped"}`,
			`{"phrase":"1 onion , chopped"}`,
		},
	} {
		t.Run(strings.TrimPrefix(tc.route, "/v1/"), func(t *testing.T) {
			post := func(body string) (*http.Response, error) {
				return client.Post(ts.URL+tc.route, "application/json", strings.NewReader(body))
			}
			if resp, err := post(tc.poisoned); err == nil {
				resp.Body.Close()
				t.Fatalf("poisoned request answered %d, want a transport error", resp.StatusCode)
			}
			if n := s.reg.InFlight(); n != 0 {
				t.Errorf("in-flight gauge = %d after the panic, want 0", n)
			}
			if n := len(s.sem); n != 0 {
				t.Errorf("%d admission slots held after the panic, want 0", n)
			}
			if cl := s.reg.Snapshot().Routes[tc.route].ByClass; cl["5xx"] != 1 || cl["2xx"] != 0 {
				t.Errorf("after the panic %s counts by class %v, want one 5xx and no 2xx", tc.route, cl)
			}

			resp, err := post(tc.good)
			if err != nil {
				t.Fatalf("request after the panic: %v", err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request after the panic: status %d: %s", resp.StatusCode, got)
			}
			want := postJSON(t, reference, tc.route, tc.good)
			if want.Code != http.StatusOK || string(got) != want.Body.String() {
				t.Fatalf("request after the panic served\n %s\nwant the rule tagger's\n %s", got, want.Body.String())
			}
			if n := s.reg.InFlight(); n != 0 {
				t.Errorf("in-flight gauge = %d after the last request, want 0", n)
			}
			if n := len(s.sem); n != 0 {
				t.Errorf("%d admission slots held after the last request, want 0", n)
			}
			if cl := s.reg.Snapshot().Routes[tc.route].ByClass; cl["5xx"] != 1 || cl["2xx"] != 1 {
				t.Errorf("%s counts by class %v, want one 5xx and one 2xx", tc.route, cl)
			}
		})
	}
}
