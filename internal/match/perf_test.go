package match

// Steady-state performance pins for the interned engine. The CI perf gate
// (cmd/benchgate via make bench-json) tracks BenchmarkMatchName and
// BenchmarkRank; TestWarmPathZeroAllocs turns the headline claim — zero
// allocations per query once the arena pool is warm — into a hard test
// so an accidental allocation fails fast, not just in nightly benchstat.

import (
	"fmt"
	"testing"

	"nutriprofile/internal/ner"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/usda"
)

// benchQueries exercise multi-word phrases, entity folding, negation
// rewriting and raw-provision ties against the seed database.
var benchQueries = []Query{
	{Name: "low fat sour cream"},
	{Name: "unsalted butter"},
	{Name: "apple"},
	{Name: "chicken breast", State: "roasted"},
	{Name: "tomato paste"},
}

func BenchmarkMatchName(b *testing.B) {
	m := NewDefault(usda.Seed())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.MatchName("low fat sour cream"); !ok {
			b.Fatal("no match")
		}
	}
}

func BenchmarkRank(b *testing.B) {
	m := NewDefault(usda.Seed())
	var buf []Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.RankInto(benchQueries[i%len(benchQueries)], 10, buf)
		if len(buf) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkRankExplain(b *testing.B) {
	// The eager-Matched configuration dbtool explain output uses: shows
	// what lazy materialization saves the default path.
	opts := DefaultOptions()
	opts.ExplainMatched = true
	m := New(usda.Seed(), opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := m.Rank(benchQueries[i%len(benchQueries)], 10); len(rs) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkRankLargeDB(b *testing.B) {
	m := NewDefault(usda.Merged(7500, 3))
	var buf []Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.RankInto(Query{Name: "golden harvest beans"}, 10, buf)
	}
}

// longPostingQueries are the pruning engine's target workload: names
// and folded entities that drag stop-word-like terms ("raw", "whole",
// "with salt") whose posting lists span hundreds-to-thousands of
// documents at SR26 scale. The mix covers heavy terms inside the
// anchor (merged gather+score), a rare anchor with a heavy folded
// state (an update-only walk over a long posting list), and many-term
// names (gather exit and the selection bar).
var longPostingQueries = []Query{
	{Name: "chicken raw"},
	{Name: "raw whole milk"},
	{Name: "tomato paste", State: "raw"},
	{Name: "golden harvest beans", State: "frozen"},
	{Name: "whole raw cream cheese with salt"},
	{Name: "quail", State: "raw"},
}

// benchRankEngines runs one query set over the production matcher and
// the exhaustive spec (spec_test.go) at k ∈ {1, 10}: the
// pruned/exhaustive pairing is what the nightly bench gate tracks and
// EXPERIMENTS.md quotes as the pruning speedup.
func benchRankEngines(b *testing.B, db *usda.DB, queries []Query) {
	m := NewDefault(db)
	for _, eng := range []struct {
		name     string
		rankInto func(Query, int, []Result) []Result
	}{{"pruned", m.RankInto}, {"exhaustive", newSpec(m).RankInto}} {
		for _, k := range []int{1, 10} {
			b.Run(fmt.Sprintf("%s/k=%d", eng.name, k), func(b *testing.B) {
				var buf []Result
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = eng.rankInto(queries[i%len(queries)], k, buf)
					if len(buf) == 0 {
						b.Fatal("no results")
					}
				}
			})
		}
	}
}

// BenchmarkRankCold is the cache-miss ranking cost on the realistic
// query mix — the per-phrase price every cold batch pays — at seed and
// SR26 scale, both engines.
func BenchmarkRankCold(b *testing.B) {
	for _, sc := range []struct {
		name string
		db   *usda.DB
	}{{"seed", usda.Seed()}, {"sr26", usda.Merged(7500, 3)}} {
		b.Run(sc.name, func(b *testing.B) { benchRankEngines(b, sc.db, benchQueries) })
	}
}

// BenchmarkRankLongPostings is BenchmarkRankCold on the long-posting
// workload the pruned engine exists for.
func BenchmarkRankLongPostings(b *testing.B) {
	for _, sc := range []struct {
		name string
		db   *usda.DB
	}{{"seed", usda.Seed()}, {"sr26", usda.Merged(7500, 3)}} {
		b.Run(sc.name, func(b *testing.B) { benchRankEngines(b, sc.db, longPostingQueries) })
	}
}

// saltedCorpusQueries is bulk-cold's ranking workload: one query per
// ingredient phrase of the 3,000-recipe seed-42 corpus, each phrase
// salted with a token unique to it the way nutribench's bulk-cold salts
// its first pass (" zq", two pass letters, six letters numbering the
// phrase) so no cache could answer it, then extracted by the rule
// tagger as the served pipeline extracts it.
func saltedCorpusQueries(tb testing.TB) []Query {
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: 3000, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	const letters = "bcdfghjklmnpqrtv"
	phrases := corpus.Phrases()
	queries := make([]Query, len(phrases))
	for id, p := range phrases {
		salted := append([]byte(p), " zq"...)
		salted = append(salted, letters[0], letters[0]) // pass 0
		for shift := 20; shift >= 0; shift -= 4 {
			salted = append(salted, letters[id>>shift&15])
		}
		ex := ner.Extract(ner.RuleTagger{}, string(salted))
		queries[id] = Query{Name: ex.Name, State: ex.State, Temp: ex.Temp, DryFresh: ex.DryFresh}
	}
	return queries
}

// BenchmarkRankCorpus ranks bulk-cold's queries (saltedCorpusQueries)
// at k=1 over the table nutribench serves, both engines: the workload
// the pruning mechanisms are audited on (EXPERIMENTS.md). Some salted
// queries match nothing, as on the served path.
func BenchmarkRankCorpus(b *testing.B) {
	m := NewDefault(usda.Merged(7500, 1))
	queries := saltedCorpusQueries(b)
	for _, eng := range []struct {
		name     string
		rankInto func(Query, int, []Result) []Result
	}{{"pruned", m.RankInto}, {"exhaustive", newSpec(m).RankInto}} {
		b.Run(eng.name+"/k=1", func(b *testing.B) {
			var buf []Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = eng.rankInto(queries[i%len(queries)], 1, buf)
			}
		})
	}
}

func TestWarmPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	m := NewDefault(usda.Seed())
	var buf []Result
	// Warm the arena pool and grow every scratch slice to steady state.
	for _, q := range benchQueries {
		buf = m.RankInto(q, 10, buf)
		if _, ok := m.Match(q); !ok {
			t.Fatalf("no match for %+v", q)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, q := range benchQueries {
			buf = m.RankInto(q, 10, buf)
			m.Match(q)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Match/RankInto allocated %.1f times per run, want 0", allocs)
	}
}
