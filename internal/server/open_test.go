package server

import (
	"encoding/json"
	"testing"

	"nutriprofile/internal/core"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/usda/bake"
)

// TestOpenDifferential pins the CLIs' one table opener to the
// estimator the golden corpus is recorded against: servers built from
// bake.Open("seed") and from bake.Open of a seed image, the way
// nutriserve boots, answer every corpus recipe and phrase
// byte-identically to one built by core.New(usda.Seed()).
func TestOpenDifferential(t *testing.T) {
	newServer := func(est *core.Estimator, err error) *Server {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	opts := core.Options{CacheSize: 1024}
	ref := newServer(core.New(usda.Seed(), nil, opts))
	opened := map[string]*Server{}
	for _, spec := range []string{"seed", bakeImage(t, "seed.img", usda.Seed())} {
		ld, err := bake.Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		opened[spec] = newServer(core.NewWithIndex(ld.DB, nil, opts, ld.Index, spec))
	}

	check := func(route, body string) {
		t.Helper()
		want := postJSON(t, ref.Handler(), route, body)
		if want.Code != 200 {
			t.Fatalf("%s %s: reference status %d", route, body, want.Code)
		}
		for spec, s := range opened {
			if got := postJSON(t, s.Handler(), route, body); got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Fatalf("%s %s from -db %s:\n got %d %s\nwant %d %s",
					route, body, spec, got.Code, got.Body.String(), want.Code, want.Body.String())
			}
		}
	}
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// Two passes: the second answers from warm caches.
	for pass := 0; pass < 2; pass++ {
		for _, rec := range loadCorpus(t) {
			check("/v1/recipe", marshal(RecipeRequest{
				Ingredients: rec.Ingredients,
				Servings:    rec.Servings,
				Method:      rec.Method,
			}))
			for _, phrase := range rec.Ingredients {
				check("/v1/estimate", marshal(EstimateRequest{Phrase: phrase}))
			}
		}
	}
}
