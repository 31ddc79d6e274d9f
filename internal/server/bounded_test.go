package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"nutriprofile/internal/core"
	"nutriprofile/internal/usda"
)

// liveHeap is the heap still reachable after two forced collections:
// the second drops what the first moved into sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// hugePhrase builds a distinct phrase of about n bytes. Even i gives
// many short words (long token, tag and lemma buffers, a long NER name
// and match key); odd i gives one giant word (a giant memoized token).
func hugePhrase(i, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d cups ", i+1)
	if i%2 == 1 {
		b.WriteString(strings.Repeat(string(rune('a'+i)), n-b.Len()))
		return b.String()
	}
	words := []string{"chopped", "fresh", "flour", "sugar", "diced", "onion", "sweet", "butter"}
	for j := 0; b.Len() < n; j++ {
		b.WriteString(words[(i+j)%len(words)])
		fmt.Fprintf(&b, "%c ", 'a'+rune(j%26))
	}
	return b.String()
}

// TestPathologicalPhrasesDoNotPinHeap: a burst of distinct ~1 MB
// phrases through /v1/estimate and /v1/batch leaves the live heap
// within 1 MiB of its level before the burst. Every cache tier bounds
// its entries in count, not bytes, so without a key-length cap each
// such phrase would stay resident in the phrase and match tiers; and
// a pipeline scratch grows its buffers to the longest phrase it has
// seen, so without a cap on what it keeps when released the worker
// environments would keep them too.
func TestPathologicalPhrasesDoNotPinHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("pushes ~10 MB of phrases through the pipeline")
	}
	est, err := core.New(usda.Seed(), nil, core.Options{CacheSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Estimator: est, BatchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	send := func(path, body string) {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %.200s", path, w.Code, w.Body.String())
		}
	}
	ordinary := func() {
		for _, p := range []string{"2 cups all-purpose flour", "1 small onion , finely chopped", "3 eggs"} {
			send("/v1/estimate", `{"phrase":"`+p+`"}`)
			send("/v1/batch", `{"phrase":"`+p+`"}`+"\n"+`{"ingredients":["`+p+`","1 cup milk"],"servings":2}`+"\n")
		}
	}
	ordinary() // warm scratches, worker environments and caches
	ordinary()
	before := liveHeap()

	const size = 1_000_000
	for i := 0; i < 6; i++ {
		send("/v1/estimate", `{"phrase":"`+hugePhrase(i, size)+`"}`)
	}
	for i := 6; i < 10; i++ {
		var body bytes.Buffer
		fmt.Fprintf(&body, "{\"phrase\":%q}\n", hugePhrase(i, size))
		send("/v1/batch", body.String())
	}
	ordinary()

	after := liveHeap()
	if after > before+1<<20 {
		t.Errorf("live heap %d B after the burst, %d B before: %d B pinned, want at most 1 MiB",
			after, before, after-before)
	}
	runtime.KeepAlive(s) // the server, its caches and worker environments
}
