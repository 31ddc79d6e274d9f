package core

import (
	"testing"

	"nutriprofile/internal/memo"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/usda"
)

// TestColdMissesLeaveTiersEmpty: a stream of phrases the estimator has
// never seen — nutribench's bulk-cold workload — must leave neither
// memo tier holding entries under TinyLFU, since a key is stored only
// on its second sighting. Each phrase carries a letter-only salt, as
// nutribench's salts are: the tokenizer keeps it one word and NER
// folds it into the ingredient name, so the phrase key and the match
// query are both new and both tiers miss.
func TestColdMissesLeaveTiersEmpty(t *testing.T) {
	const n, capacity = 100000, 8192
	e, err := New(usda.Merged(7500, 1), nil, Options{CacheSize: capacity, CachePolicy: memo.PolicyTinyLFU})
	if err != nil {
		t.Fatal(err)
	}
	corpus, _ := testCorpus(t, 400)
	flat := corpus.Phrases()
	const letters = "bcdfghjklmnpqrtv"
	sc := new(pipeline.Scratch)
	buf := make([]byte, 0, 128)
	for i := 0; i < n; i++ {
		buf = append(append(buf[:0], flat[i%len(flat)]...), " zq"...)
		for shift := 20; shift >= 0; shift -= 4 {
			buf = append(buf, letters[i>>shift&15])
		}
		e.EstimateIngredientScratch(string(buf), sc)
	}
	phrase, match := e.CacheStats()
	for _, tier := range []struct {
		name string
		st   memo.Stats
	}{{"phrase", phrase}, {"match", match}} {
		st := tier.st
		t.Logf("%s tier: %d of %d entries, %d misses, %d hits, %d rejections",
			tier.name, st.Entries, st.Capacity, st.Misses, st.Hits, st.Rejections)
		if st.Misses < n/2 {
			t.Errorf("%s tier: %d misses over %d salted phrases; the salt did not make them new", tier.name, st.Misses, n)
		}
		if st.Entries > st.Capacity/100 {
			t.Errorf("%s tier: %d of %d entries resident after %d cold phrases; want at most 1 %%",
				tier.name, st.Entries, st.Capacity, n)
		}
	}
}

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
