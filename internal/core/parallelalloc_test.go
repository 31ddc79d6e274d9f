package core

// Pins the fix for the parallel allocation leak: at -cpu 4 the old
// sync.Pool-backed batch path inflated from ~670 to ~1374 allocs/op
// because oversubscription drained the pool's per-P caches and every
// checkout re-warmed a cold scratch (re-interning, memo rebuilds, arena
// regrowth). Worker environments are estimator-owned now, so a warm
// parallel batch allocates only fixed per-batch machinery (result
// slice, goroutines, WaitGroup) — nothing per phrase.

import (
	"strconv"
	"testing"

	"nutriprofile/internal/memo"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/usda"
)

// TestParallelBatchZeroAllocPerPhrase: after one warming sweep, a
// 4-worker parallel batch must stay under a small fixed allocation
// budget regardless of batch size — i.e. zero allocations per phrase.
// A re-warming regression costs multiple allocations per phrase and
// blows the budget by orders of magnitude.
func TestParallelBatchZeroAllocPerPhrase(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	corpus, _ := testCorpus(t, 40)
	flat := corpus.Phrases()
	phrases := make([]string, 0, len(flat)*3)
	for rep := 0; rep < 3; rep++ {
		phrases = append(phrases, flat...)
	}

	const workers = 4
	estimateAll(t, e, phrases, workers) // warm caches and environments

	allocs := testing.AllocsPerRun(20, func() {
		if got := estimateAll(t, e, phrases, workers); len(got) != len(phrases) {
			t.Fatal("short batch result")
		}
	})
	// Fixed per-batch overhead: one result slice, `workers` goroutine
	// closures, and the WaitGroup. 24 is several times that machinery
	// and still ~0.04 allocs per phrase for this input; the pre-fix
	// behavior (scratch re-warming) costs multiple allocs per *phrase*
	// and lands thousands over budget.
	if maxAllocs := 24.0; allocs > maxAllocs {
		t.Fatalf("warm %d-worker batch of %d phrases allocates %v per run, want <= %v",
			workers, len(phrases), allocs, maxAllocs)
	}
}

// TestPhraseMissAllocs pins the cost of a phrase-cache miss on the
// benchmark's database and cache budget, for two salt shapes that each
// make every phrase new to the phrase cache.
//
// A numeric salt leaves the NER name, and so the match query, unchanged
// (its description match is cached) and joins the Quantity field
// ("2 100123"). Such a miss allocates the field, a one-off the scratch
// does not keep, and under LRU also the phrase-cache key string and the
// memo entry that holds the result's record by value: 3 allocations.
// Under TinyLFU the miss is the key's first sighting, so the store is
// refused and allocates nothing: 1.
//
// A letters-only salt, nutribench's bulk-cold shape, lands in the NER
// name, so the rule tagger probes it as a unit and the match query is
// new too. Under TinyLFU such a miss allocates exactly the one-off Name
// field: the salt's unit facts are computed and not stored, and its
// unknown unit name is not cloned. Under LRU the phrase and match tiers
// each store a key string and an entry: 5.
func TestPhraseMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	db := usda.Merged(7500, 1)
	corpus, _ := testCorpus(t, 40)
	flat := corpus.Phrases()
	const warm, runs = 2000, 500
	salts := []struct {
		name         string
		salt         func(i int) string
		lru, tinyLFU float64
	}{
		{"numeric", func(i int) string { return strconv.Itoa(100000 + i) }, 3, 1},
		{"letters", letterSalt, 5, 1},
	}
	for _, st := range salts {
		salted := make([]string, warm+runs+1)
		for i := range salted {
			salted[i] = flat[i%len(flat)] + " " + st.salt(i)
		}
		for _, policy := range []memo.Policy{memo.PolicyLRU, memo.PolicyTinyLFU} {
			e, err := New(db, nil, Options{CacheSize: 8192, CachePolicy: policy})
			if err != nil {
				t.Fatal(err)
			}
			sc := new(pipeline.Scratch)
			// Warm the match cache, the NER scratch and every scratch buffer.
			for _, p := range salted[:warm] {
				e.EstimateIngredientScratch(p, sc)
			}
			next := warm
			allocs := testing.AllocsPerRun(runs, func() {
				e.EstimateIngredientScratch(salted[next], sc)
				next++
			})
			want := st.lru
			if policy == memo.PolicyTinyLFU {
				want = st.tinyLFU
			}
			if allocs != want {
				t.Errorf("%s salt, %v: a phrase-cache miss allocates %v times, want %v", st.name, policy, allocs, want)
			}
		}
	}
}

// letterSalt spells salt i as nutribench does: "zq" and six letters
// from an alphabet without s, e or y, so the tokenizer keeps it one word
// and no lemmatizer suffix rule folds two salts together.
func letterSalt(i int) string {
	const letters = "bcdfghjklmnpqrtv"
	b := []byte("zq")
	for shift := 20; shift >= 0; shift -= 4 {
		b = append(b, letters[i>>shift&15])
	}
	return string(b)
}

// TestWarmFractionPhraseZeroAllocs: a warm phrase with a vulgar-fraction
// glyph is served from the phrase cache without allocating. The glyph
// expansion renders into the scratch instead of a new string per call.
func TestWarmFractionPhraseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const phrase = "1½ cups flour"
	sc := new(pipeline.Scratch)
	want := e.EstimateIngredientScratch(phrase, sc) // warm the cache and scratch
	if !want.Mapped || want.Quantity != 1.5 {
		t.Fatalf("%q: Mapped=%v Quantity=%v, want a mapped 1.5", phrase, want.Mapped, want.Quantity)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.EstimateIngredientScratch(phrase, sc)
	}); allocs != 0 {
		t.Fatalf("warm %q allocates %v times per call, want 0", phrase, allocs)
	}
}
