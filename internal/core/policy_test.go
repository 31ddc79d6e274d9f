package core

import (
	"testing"

	"nutriprofile/internal/memo"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/usda"
)

// TestCachePolicyDifferential is the acceptance gate for the cache
// ablation flag: estimation must be byte-identical with the memo
// caches running LRU, TinyLFU, or disabled entirely. The cache is
// deliberately undersized against the corpus so both policies evict
// and TinyLFU rejects heavily — the maximum opportunity for an
// admission bug to surface as a wrong (stale or fabricated) result.
func TestCachePolicyDifferential(t *testing.T) {
	recipes := 3000
	if testing.Short() {
		recipes = 500
	}
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: recipes, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	phrases := corpus.Phrases()

	newEst := func(opts Options) *Estimator {
		e, err := New(usda.Seed(), nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	uncached := newEst(Options{})
	lru := newEst(Options{CacheSize: 256, CachePolicy: memo.PolicyLRU})
	tlfu := newEst(Options{CacheSize: 256, CachePolicy: memo.PolicyTinyLFU})

	// Two passes: the second re-estimates every phrase against warm
	// (and by then heavily churned) caches, so hits, evictions,
	// rejections and re-insertions all land on the comparison path.
	for pass := 0; pass < 2; pass++ {
		for i, p := range phrases {
			want := uncached.EstimateIngredient(p)
			if got := lru.EstimateIngredient(p); !resultsEqual(got, want) {
				t.Fatalf("pass %d phrase %d %q: lru diverged\n got %+v\nwant %+v", pass, i, p, got, want)
			}
			if got := tlfu.EstimateIngredient(p); !resultsEqual(got, want) {
				t.Fatalf("pass %d phrase %d %q: tinylfu diverged\n got %+v\nwant %+v", pass, i, p, got, want)
			}
		}
	}

	// The ablation must have actually exercised admission: an
	// identical-results pass with zero rejections would prove nothing.
	ps, _ := tlfu.CacheStats()
	if ps.Rejections == 0 {
		t.Fatalf("tinylfu phrase cache recorded no rejections (stats %+v) — differential vacuous", ps)
	}
	if ps.Policy != "tinylfu" {
		t.Fatalf("phrase cache policy = %q, want tinylfu", ps.Policy)
	}
	if lps, _ := lru.CacheStats(); lps.Policy != "lru" {
		t.Fatalf("lru estimator phrase cache policy = %q", lps.Policy)
	}
}

// TestCachePolicyBatchDifferential runs the sharded parallel batch
// path (slot L1s + L2 memo + singleflight) under both policies and
// compares whole-recipe results — the path production /v1/batch
// traffic takes.
func TestCachePolicyBatchDifferential(t *testing.T) {
	recipes := 400
	if testing.Short() {
		recipes = 100
	}
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: recipes, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	phrases := corpus.Phrases()

	run := func(p memo.Policy) []IngredientResult {
		e, err := New(usda.Seed(), nil, Options{CacheSize: 512, CachePolicy: p})
		if err != nil {
			t.Fatal(err)
		}
		// Two rounds: round one warms and churns, round two is the
		// comparison surface.
		estimateAll(t, e, phrases, 8)
		return estimateAll(t, e, phrases, 8)
	}
	lru, tlfu := run(memo.PolicyLRU), run(memo.PolicyTinyLFU)
	for i := range lru {
		if !resultsEqual(lru[i], tlfu[i]) {
			t.Fatalf("phrase %d %q: batch results diverge across policies\n lru  %+v\n tlfu %+v",
				i, phrases[i], lru[i], tlfu[i])
		}
	}
}
