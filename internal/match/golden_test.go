package match

// Golden differential test for the interned-vocabulary engine: refMatcher
// below is the pre-interning implementation — map[string]struct{} word
// sets, map[string][]int32 inverted index, per-candidate Matched
// materialization, full sort.Slice — kept verbatim as an executable
// specification. Every (query, options, k) cell must produce a
// reflect.DeepEqual-identical []Result from both engines, pinning the
// rewrite to byte-identical behavior across the full seed DB, a corpus of
// derived + adversarial queries, both metrics, and every heuristic
// ablation.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"nutriprofile/internal/textutil"
	"nutriprofile/internal/usda"
)

// refDoc is the reference engine's preprocessed description (the old
// descDoc): its word set plus each word's first comma-term index
// (§II-B(h)) and the literal-"raw" flag (§II-B(g)).
type refDoc struct {
	set      textutil.Set
	priority map[string]int
	hasRaw   bool
}

func refNormalizeDesc(desc string) refDoc {
	doc := refDoc{set: textutil.Set{}, priority: map[string]int{}}
	for termIdx, term := range textutil.SplitCommaTerms(desc) {
		for _, w := range NormalizeTokens(term) {
			doc.set.Add(w)
			if _, seen := doc.priority[w]; !seen {
				doc.priority[w] = termIdx + 1
			}
			if w == "raw" {
				doc.hasRaw = true
			}
		}
	}
	return doc
}

// refMatcher is the old map-based scoring engine.
type refMatcher struct {
	db       *usda.DB
	opts     Options
	docs     []refDoc
	inverted map[string][]int32
}

func newRefMatcher(db *usda.DB, opts Options) *refMatcher {
	m := &refMatcher{
		db:       db,
		opts:     opts,
		docs:     make([]refDoc, db.Len()),
		inverted: make(map[string][]int32),
	}
	for i := 0; i < db.Len(); i++ {
		doc := refNormalizeDesc(db.At(i).Desc())
		m.docs[i] = doc
		for w := range doc.set {
			m.inverted[w] = append(m.inverted[w], int32(i))
		}
	}
	return m
}

func (m *refMatcher) querySet(q Query) (anchor, scored textutil.Set, rawEligible bool) {
	nameTokens := NormalizeTokens(q.Name)
	tokens := nameTokens
	for _, extra := range []string{q.State, q.Temp, q.DryFresh} {
		if extra != "" {
			tokens = append(tokens, NormalizeTokens(extra)...)
		}
	}
	scored = textutil.NewSet(tokens)
	anchor = scored
	if m.opts.NameAnchoring {
		anchor = textutil.NewSet(nameTokens)
	}
	rawEligible = m.opts.RawProvision && q.State == "" && !scored.Has("raw")
	return anchor, scored, rawEligible
}

func (m *refMatcher) Rank(q Query, k int) []Result {
	anchor, qset, rawEligible := m.querySet(q)
	if anchor.Len() == 0 {
		return nil
	}
	candSet := map[int32]struct{}{}
	for w := range anchor {
		for _, i := range m.inverted[w] {
			candSet[i] = struct{}{}
		}
	}
	if len(candSet) == 0 {
		return nil
	}
	results := make([]Result, 0, len(candSet))
	for i := range candSet {
		doc := &m.docs[i]
		if anchor.IntersectLen(doc.set) == 0 {
			continue
		}
		inter := qset.IntersectLen(doc.set)
		var score float64
		switch m.opts.Metric {
		case VanillaJaccard:
			score = float64(inter) / float64(qset.UnionLen(doc.set))
		default:
			score = float64(inter) / float64(qset.Len())
		}
		if score < m.opts.MinScore {
			continue
		}
		matched := make([]string, 0, inter)
		priority := 0
		for w := range qset {
			if doc.set.Has(w) {
				matched = append(matched, w)
				priority += doc.priority[w]
			}
		}
		sort.Strings(matched)
		food := m.db.At(int(i))
		results = append(results, Result{
			NDB: food.NDB(), Desc: food.Desc(), Score: score,
			Priority: priority, RawBonus: rawEligible && doc.hasRaw,
			Matched: matched, index: int(i),
		})
	}
	if len(results) == 0 {
		return nil
	}
	sort.Slice(results, func(a, b int) bool {
		ra, rb := &results[a], &results[b]
		if ra.Score != rb.Score {
			return ra.Score > rb.Score
		}
		if ra.RawBonus != rb.RawBonus {
			return ra.RawBonus
		}
		if m.opts.PriorityResolution && ra.Priority != rb.Priority {
			return ra.Priority < rb.Priority
		}
		return ra.index < rb.index
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results
}

// goldenCorpus builds the query sweep: every seed description recycled
// into queries (first comma term as NAME, second as STATE — guaranteeing
// in-vocabulary hits, score ties among sibling descriptions, and raw/
// priority collisions), plus handcrafted adversarial queries covering
// negations, unicode fractions, out-of-vocabulary words, empty and
// punctuation-only names, multi-entity queries and "raw" as a query word.
func goldenCorpus(db *usda.DB) []Query {
	var corpus []Query
	for i := 0; i < db.Len(); i++ {
		terms := textutil.SplitCommaTerms(db.At(i).Desc())
		q := Query{Name: terms[0]}
		corpus = append(corpus, q)
		if len(terms) > 1 {
			corpus = append(corpus,
				Query{Name: terms[0], State: terms[1]},
				Query{Name: terms[0] + " " + terms[1]})
		}
	}
	corpus = append(corpus,
		Query{},                    // empty everything
		Query{Name: "   "},         // whitespace only
		Query{Name: "1/2 (2,%)"},   // punctuation/number only → no words
		Query{Name: "qzxv florp"},  // fully out-of-vocabulary
		Query{Name: "butter qzxv"}, // partially out-of-vocabulary
		Query{Name: "unsalted butter"},
		Query{Name: "fat-free milk"},
		Query{Name: "boneless chicken"},
		Query{Name: "raw apple"}, // "raw" as an explicit query word
		Query{Name: "apple"},     // raw provision tie-break
		Query{Name: "tomato"},
		Query{Name: "tomato paste"},
		Query{Name: "egg", State: "boiled"},
		Query{Name: "chicken breast", State: "roasted", Temp: "hot"},
		Query{Name: "beans", State: "cooked", DryFresh: "dry"},
		Query{Name: "milk", DryFresh: "fresh"},
		Query{Name: "½ apple"},                 // unicode fraction in the phrase
		Query{Name: "Butter, with salt"},       // commas in a query name
		Query{Name: "lentils lentils lentils"}, // duplicate words
		Query{Name: "salt", State: "salt"},     // same word both entities
		Query{Name: "no salt added butter"},    // standalone negation
	)
	return corpus
}

// goldenOptionSets enumerates both metrics × every 2³ heuristic ablation
// (ExplainMatched on, so Matched materialization is compared too), plus a
// high-MinScore filter case.
func goldenOptionSets() []Options {
	var sets []Options
	for _, metric := range []Metric{ModifiedJaccard, VanillaJaccard} {
		for mask := 0; mask < 8; mask++ {
			sets = append(sets, Options{
				Metric:             metric,
				RawProvision:       mask&1 != 0,
				PriorityResolution: mask&2 != 0,
				NameAnchoring:      mask&4 != 0,
				MinScore:           1e-9,
				ExplainMatched:     true,
			})
		}
	}
	strict := DefaultOptions()
	strict.MinScore = 0.5
	strict.ExplainMatched = true
	sets = append(sets, strict)
	return sets
}

func TestGoldenDifferentialAgainstMapEngine(t *testing.T) {
	db := usda.Seed()
	corpus := goldenCorpus(db)
	ks := []int{0, 1, 3, 10}
	cells := 0
	for oi, opts := range goldenOptionSets() {
		ref := newRefMatcher(db, opts)
		cur := New(db, opts)
		for _, q := range corpus {
			for _, k := range ks {
				want := ref.Rank(q, k)
				got := cur.Rank(q, k)
				cells++
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("opts[%d]=%+v q=%+v k=%d:\n got %s\nwant %s",
						oi, opts, q, k, renderResults(got), renderResults(want))
				}
			}
		}
	}
	t.Logf("compared %d (options × query × k) cells", cells)
}

// TestGoldenLazyMatched pins the ExplainMatched=false contract: identical
// rankings with Matched left nil.
func TestGoldenLazyMatched(t *testing.T) {
	db := usda.Seed()
	eager := DefaultOptions()
	eager.ExplainMatched = true
	ref := newRefMatcher(db, eager)
	cur := New(db, DefaultOptions()) // ExplainMatched off
	for _, q := range goldenCorpus(db) {
		want := ref.Rank(q, 5)
		for i := range want {
			want[i].Matched = nil
		}
		if got := cur.Rank(q, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%+v:\n got %s\nwant %s", q, renderResults(got), renderResults(want))
		}
	}
}

// TestGoldenRankInto pins that the zero-allocation variant returns the
// same results as Rank through a reused buffer.
func TestGoldenRankInto(t *testing.T) {
	db := usda.Seed()
	m := NewDefault(db)
	var buf []Result
	for _, q := range goldenCorpus(db) {
		buf = m.RankInto(q, 7, buf)
		want := m.Rank(q, 7)
		if len(buf) == 0 && want == nil {
			continue
		}
		if !reflect.DeepEqual([]Result(buf), want) {
			t.Fatalf("q=%+v: RankInto %s != Rank %s", q, renderResults(buf), renderResults(want))
		}
	}
}

func renderResults(rs []Result) string {
	if rs == nil {
		return "nil"
	}
	s := "[\n"
	for _, r := range rs {
		s += fmt.Sprintf("  {NDB:%d Score:%v Pri:%d Raw:%v idx:%d Matched:%q Desc:%q}\n",
			r.NDB, r.Score, r.Priority, r.RawBonus, r.index, r.Matched, r.Desc)
	}
	return s + "]"
}
