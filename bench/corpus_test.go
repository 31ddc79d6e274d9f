package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nutriprofile/internal/textutil"
)

func testCorpus(t *testing.T, n int) []recipe {
	t.Helper()
	rs, err := genCorpus(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"2 cups flour", `say "cheese"`, `back\slash`, "tab\tnew\nline\x01", "crème brûlée"} {
		want, _ := json.Marshal(s)
		var got string
		if err := json.Unmarshal(appendJSONString(nil, s), &got); err != nil || got != s {
			t.Errorf("appendJSONString(%q) = %s, decodes to %q (%v); encoding/json writes %s", s, appendJSONString(nil, s), got, err, want)
		}
	}
}

func TestStreamLinesAreTheCorpus(t *testing.T) {
	rs := testCorpus(t, 50)
	ss := newStreams(rs, 2, false)
	if ss[0].lines()+ss[1].lines() != len(rs) {
		t.Fatalf("%d + %d lines for %d recipes", ss[0].lines(), ss[1].lines(), len(rs))
	}
	for i, r := range rs {
		s := ss[i%2]
		line := s.buf[s.offs[i/2]:s.offs[i/2+1]]
		if line[len(line)-1] != '\n' {
			t.Fatalf("line %d lacks its newline", i)
		}
		var v struct {
			Ingredients []string `json:"ingredients"`
			Servings    int      `json:"servings"`
			Method      string   `json:"method"`
		}
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !reflect.DeepEqual(v.Ingredients, r.phrases) || v.Servings != r.servings || v.Method != r.method {
			t.Errorf("line %d = %+v, want %+v", i, v, r)
		}
	}
}

// A salt must survive tokenization as one word of its phrase, be unique
// within a pass, and change with the pass.
func TestSaltsAreFreshWordsEveryPass(t *testing.T) {
	rs := testCorpus(t, 40)
	ss := newStreams(rs, 2, true)
	seen := map[string]bool{}
	salts := func(pass int) {
		for _, s := range ss {
			s.setPass(0, s.lines(), pass)
			for i := range s.lines() {
				phrases, err := decodePhrases(nil, s.buf[s.offs[i]:s.offs[i+1]])
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range phrases {
					toks := textutil.Tokenize(p)
					salt := toks[len(toks)-1]
					if len(salt) != 10 || !strings.HasPrefix(salt, "zq") || !strings.HasSuffix(p, " "+salt) {
						t.Fatalf("phrase %q: last token %q is not its salt", p, salt)
					}
					if seen[salt] {
						t.Fatalf("salt %q used twice", salt)
					}
					seen[salt] = true
				}
			}
		}
	}
	salts(0)
	n := len(seen)
	salts(1)
	salts(255)
	if len(seen) != 3*n {
		t.Errorf("%d distinct salts over three passes of %d phrases", len(seen), n)
	}
}

func TestPoolRequestsParse(t *testing.T) {
	rs := testCorpus(t, 30)
	rng := rand.New(rand.NewSource(1))
	p := newPool(rs, 200, rng, zipfPick(rs, zipfS, rng))
	kinds := [2]int{}
	for i := range p.size() {
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(p.request(i))))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(req.Body)
		if req.URL.Path != kindPath[p.kinds[i]] || !bytes.Equal(body, p.requestBody(i)) ||
			req.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Fatalf("request %d: %s %s with %q", i, req.Method, req.URL.Path, body)
		}
		if phrases, err := decodePhrases(nil, body); err != nil || len(phrases) == 0 {
			t.Fatalf("request %d body %q: %v", i, body, err)
		}
		kinds[p.kinds[i]]++
	}
	if kinds[kindEstimate] == 0 || kinds[kindRecipe] == 0 {
		t.Errorf("pool kinds %v: want both estimates and recipes", kinds)
	}
}
