package main

// Workload inputs. Everything a run sends is rendered here, before the
// timed window opens: bulk streams as one NDJSON buffer each, and the
// interactive request pools as ready-to-write HTTP/1.1 requests.

import (
	"errors"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/yield"
)

// paperRecipes is the size of the paper's scraped corpus.
const paperRecipes = 118071

// recipe is one corpus recipe reduced to what a client sends.
type recipe struct {
	phrases  []string
	servings int
	method   string // "" for raw dishes; the line then omits the key
}

// genCorpus generates n recipes of the synthetic paper corpus for seed,
// as two halves with their own seeds generated side by side: generation
// is most of a run's set-up, and time spent there is time a run cannot
// spend measuring.
func genCorpus(n int, seed int64) ([]recipe, error) {
	var (
		halves [2][]recipe
		errs   [2]error
		wg     sync.WaitGroup
	)
	for h := range halves {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			halves[h], errs[h] = genPart(n/2+h*(n%2), 2*seed+int64(h))
		}(h)
	}
	wg.Wait()
	return append(halves[0], halves[1]...), errors.Join(errs[0], errs[1])
}

func genPart(n int, seed int64) ([]recipe, error) {
	if n == 0 {
		return nil, nil
	}
	out := make([]recipe, 0, n)
	err := recipedb.Each(recipedb.Config{NumRecipes: n, Seed: seed}, func(r recipedb.Recipe) bool {
		rc := recipe{phrases: make([]string, len(r.Ingredients)), servings: r.Servings}
		for i := range r.Ingredients {
			rc.phrases[i] = r.Ingredients[i].Phrase
		}
		if r.Method != yield.None {
			rc.method = r.Method.String()
		}
		out = append(out, rc)
		return true
	})
	return out, err
}

// appendJSONString appends s as a JSON string literal.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// saltLetters spell salt tokens. Letters only, so the tokenizer keeps a
// salt as one word (a digit would split off and join the quantity), and
// no s, e or y, so no lemmatizer suffix rule can fold two salts together.
const saltLetters = "bcdfghjklmnpqrtv"

// appendSalt appends a salt token unique to (pass, id): 16^6 ids cover
// the paper corpus's 945,519 phrases, and 16^2 passes any run length.
func appendSalt(b []byte, pass, id int) []byte {
	b = append(b, " zq"...)
	b = append(b, saltLetters[pass>>4&15], saltLetters[pass&15])
	for shift := 20; shift >= 0; shift -= 4 {
		b = append(b, saltLetters[id>>shift&15])
	}
	return b
}

// appendRecipeBody appends r in the /v1/recipe and /v1/batch recipe
// form. With salted, every phrase ends in a salt token and the offset of
// its pass letters within b is appended to saltAt; *id numbers phrases.
func appendRecipeBody(b []byte, r *recipe, salted bool, id *int, saltAt []int32) ([]byte, []int32) {
	b = append(b, `{"ingredients":[`...)
	for i, p := range r.phrases {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, p)
		if salted {
			b = b[:len(b)-1] // reopen the literal to append the salt
			saltAt = append(saltAt, int32(len(b)+3))
			b = appendSalt(b, 0, *id)
			*id++
			b = append(b, '"')
		}
	}
	b = append(b, `],"servings":`...)
	b = strconv.AppendInt(b, int64(r.servings), 10)
	if r.method != "" {
		b = append(b, `,"method":`...)
		b = appendJSONString(b, r.method)
	}
	return append(b, '}'), saltAt
}

// stream is one bulk stream's input: NDJSON recipe lines, sent
// cyclically, one pass after another.
type stream struct {
	buf  []byte
	offs []int // line i is buf[offs[i]:offs[i+1]], newline included
	// Salted streams only: line i's salt pass letters sit at
	// buf[saltAt[saltIdx[i]:saltIdx[i+1]]], rewritten before each pass
	// so no pass repeats an earlier one's phrases.
	saltAt  []int32
	saltIdx []int
}

func (s *stream) lines() int { return len(s.offs) - 1 }

// newStreams deals recipe i to stream i mod n.
func newStreams(rs []recipe, n int, salted bool) []*stream {
	ss := make([]*stream, n)
	for k := range ss {
		ss[k] = &stream{offs: []int{0}, saltIdx: []int{0}}
	}
	id := 0
	for i := range rs {
		s := ss[i%n]
		s.buf, s.saltAt = appendRecipeBody(s.buf, &rs[i], salted, &id, s.saltAt)
		s.buf = append(s.buf, '\n')
		s.offs = append(s.offs, len(s.buf))
		s.saltIdx = append(s.saltIdx, len(s.saltAt))
	}
	return ss
}

// setPass rewrites the salt pass letters of lines [from, to) for pass.
func (s *stream) setPass(from, to, pass int) {
	a, b := saltLetters[pass>>4&15], saltLetters[pass&15]
	for _, off := range s.saltAt[s.saltIdx[from]:s.saltIdx[to]] {
		s.buf[off], s.buf[off+1] = a, b
	}
}

// Interactive request kinds.
const (
	kindEstimate = iota
	kindRecipe
)

var kindPath = [...]string{kindEstimate: "/v1/estimate", kindRecipe: "/v1/recipe"}

// pool is a fixed sequence of pre-rendered interactive requests; request
// g of a run is pool entry g mod size.
type pool struct {
	buf   []byte
	offs  []int // request i is buf[offs[i]:offs[i+1]]
	body  []int // request i's body starts at buf[body[i]]
	kinds []int
}

func (p *pool) size() int                { return len(p.kinds) }
func (p *pool) request(i int) []byte     { return p.buf[p.offs[i]:p.offs[i+1]] }
func (p *pool) requestBody(i int) []byte { return p.buf[p.body[i]:p.offs[i+1]] }

// newPool renders n requests, half /v1/estimate of one of the recipe's
// phrases and half /v1/recipe of the whole recipe, drawing recipes with
// pick.
func newPool(rs []recipe, n int, rng *rand.Rand, pick func() int) *pool {
	p := &pool{offs: []int{0}}
	var body []byte
	for range n {
		r := &rs[pick()]
		kind := rng.Intn(2)
		body = body[:0]
		if kind == kindEstimate {
			body = append(body, `{"phrase":`...)
			body = appendJSONString(body, r.phrases[rng.Intn(len(r.phrases))])
			body = append(body, '}')
		} else {
			body, _ = appendRecipeBody(body, r, false, nil, nil)
		}
		p.buf = append(p.buf, "POST "...)
		p.buf = append(p.buf, kindPath[kind]...)
		p.buf = append(p.buf, " HTTP/1.1\r\nHost: nutribench\r\nContent-Type: application/json\r\nContent-Length: "...)
		p.buf = strconv.AppendInt(p.buf, int64(len(body)), 10)
		p.buf = append(p.buf, "\r\n\r\n"...)
		p.body = append(p.body, len(p.buf))
		p.buf = append(p.buf, body...)
		p.offs = append(p.offs, len(p.buf))
		p.kinds = append(p.kinds, kind)
	}
	return p
}

// zipfPick draws recipes with Zipf(s) popularity. The seed decides
// which recipe holds each rank, but not how long it is: under Zipf(1.1)
// the hottest recipe alone draws about a tenth of the traffic, so a
// seed-chosen length (4 to 12 phrases) would change the work per request
// from seed to seed. Rank k instead holds a recipe whose length is the
// k-th entry of a fixed cycle through the corpus's lengths.
func zipfPick(rs []recipe, s float64, rng *rand.Rand) func() int {
	byLen := map[int][]int{}
	for _, i := range rng.Perm(len(rs)) {
		n := len(rs[i].phrases)
		byLen[n] = append(byLen[n], i)
	}
	lens := make([]int, 0, len(byLen))
	for n := range byLen {
		lens = append(lens, n)
	}
	sort.Ints(lens)
	rand.New(rand.NewSource(1)).Shuffle(len(lens), func(i, j int) { lens[i], lens[j] = lens[j], lens[i] })
	perm := make([]int, 0, len(rs))
	for k := 0; len(perm) < len(rs); k++ {
		for j := range lens { // the cycle's next length with recipes left
			n := lens[(k+j)%len(lens)]
			if b := byLen[n]; len(b) > 0 {
				perm, byLen[n] = append(perm, b[0]), b[1:]
				break
			}
		}
	}
	z := recipedb.NewZipf(len(rs), s, rng.Int63())
	return func() int { return perm[z.Rank(rng.Float64())] }
}

// uniformPick draws recipes uniformly.
func uniformPick(rs []recipe, rng *rand.Rand) func() int {
	return func() int { return rng.Intn(len(rs)) }
}
