package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nutriprofile/internal/ner"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/usda"
)

// gatedTagger wraps the rule tagger, counting decodes and blocking each
// one on a gate. Every pipeline pass decodes exactly once, so the count
// is the number of passes.
type gatedTagger struct {
	inner ner.RuleTagger
	gate  chan struct{}
	calls atomic.Int64
}

func (g *gatedTagger) TagScratch(tokens []string, sc *ner.Scratch) []ner.Label {
	g.calls.Add(1)
	<-g.gate
	return g.inner.TagScratch(tokens, sc)
}

// TestConcurrentMissStorm drives 32 goroutines across 4 unique phrases
// while the pipeline is gated shut, so every one of them misses the
// phrase cache at once and runs its own pipeline pass against the
// snapshot it pinned. Each must get a result identical to a fresh
// uncached estimate, carrying its own Phrase; the 32 stores must leave
// exactly one phrase-cache entry per unique phrase; and repeats must be
// hits that run no pipeline pass. Run under -race this also exercises
// concurrent stores of one key.
func TestConcurrentMissStorm(t *testing.T) {
	tagger := &gatedTagger{gate: make(chan struct{})}
	e, err := New(usda.Seed(), tagger, Options{CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}

	phrases := []string{
		"2 cups flour",
		"1 tbsp butter",
		"3 large eggs",
		"1 cup whole milk",
	}
	const goroutines = 32 // 8 per phrase
	results := make([]IngredientResult, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.EstimateIngredientScratch(phrases[i%len(phrases)], new(pipeline.Scratch))
		}(i)
	}

	// Wait for the storm to assemble: every goroutine blocked in TagScratch,
	// which proves all 32 missed before any result landed.
	deadline := time.Now().Add(10 * time.Second)
	for tagger.calls.Load() != goroutines {
		if time.Now().After(deadline) {
			close(tagger.gate)
			wg.Wait()
			t.Fatalf("storm never assembled: %d of %d goroutines in the pipeline", tagger.calls.Load(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	close(tagger.gate)
	wg.Wait()

	plain, err := New(usda.Seed(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if want := plain.EstimateIngredient(phrases[i%len(phrases)]); !reflect.DeepEqual(r, want) {
			t.Errorf("caller %d: result diverges from a fresh uncached estimate:\n got: %+v\nwant: %+v", i, r, want)
		}
	}
	ps, _ := e.CacheStats()
	if ps.Entries != len(phrases) {
		t.Errorf("phrase cache holds %d entries after the storm, want %d", ps.Entries, len(phrases))
	}

	// A repeat is a pure cache hit: no pipeline pass, verbatim Phrase.
	for _, p := range phrases {
		if r := e.EstimateIngredient(p); r.Phrase != p {
			t.Errorf("cached repeat of %q: Phrase = %q", p, r.Phrase)
		}
	}
	if n := tagger.calls.Load(); n != goroutines {
		t.Errorf("repeats ran %d pipeline passes, want 0", n-goroutines)
	}
	if after, _ := e.CacheStats(); after.Hits != ps.Hits+uint64(len(phrases)) {
		t.Errorf("phrase-cache hits %d → %d, want +%d", ps.Hits, after.Hits, len(phrases))
	}
}
