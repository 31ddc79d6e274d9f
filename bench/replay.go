package main

// The traced replay: an in-process run that times calls into each
// layer's public functions on the inputs the end-to-end run sent, in the
// order it sent them. Every layer runs on its own fresh instance, fed
// every replayed item in that order, so each instance's caches follow
// the trajectory the server's caches followed at the start of the run.
//
// Spans are recorded here, around the calls, not inside the program:
// one root span per replayed item and one child span per layer call on
// it. A self time that the layers do not expose as a call of their own
// (the server's share outside the estimator, the unit-resolution share
// of an estimate) is derived by subtracting separately timed calls on
// identical inputs, and floored at zero.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"nutriprofile/internal/core"
	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/server"
	"nutriprofile/internal/usda/bake"
)

// serverOptions are the estimator options nutriserve runs with by
// default (-cache 8192 -cache-policy tinylfu, coalescing and pruning
// on). They must follow cmd/nutriserve's defaults.
var serverOptions = core.Options{CacheSize: 8192, CachePolicy: memo.PolicyTinyLFU}

// item is one unit of replayed work: a 64-line /v1/batch window or one
// interactive request.
type item struct {
	path    string
	body    []byte
	lines   int // recipe lines of a window; 0 for a request
	phrases []string
}

// decodePhrases lists the phrases of an NDJSON line or request body.
func decodePhrases(dst []string, body []byte) ([]string, error) {
	var v struct {
		Phrase      string   `json:"phrase"`
		Ingredients []string `json:"ingredients"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return dst, err
	}
	if v.Phrase != "" {
		return append(dst, v.Phrase), nil
	}
	return append(dst, v.Ingredients...), nil
}

func windowItem(s *stream, from, to int) (item, error) {
	it := item{path: "/v1/batch", body: bytes.Clone(s.buf[s.offs[from]:s.offs[to]]), lines: to - from}
	var err error
	for i := from; i < to; i++ {
		if it.phrases, err = decodePhrases(it.phrases, s.buf[s.offs[i]:s.offs[i+1]]); err != nil {
			return it, err
		}
	}
	return it, nil
}

func requestItem(p *pool, i int) (item, error) {
	it := item{path: kindPath[p.kinds[i]], body: p.requestBody(i)}
	var err error
	it.phrases, err = decodePhrases(nil, it.body)
	return it, err
}

// span is one timed interval of the replay.
type span struct {
	name       string
	id, parent int // parent -1: a root span
	item       int
	start, end time.Duration // from the replay's start
	ops        int
}

// tracer keeps per-layer totals and, for sampled items, spans in
// memory. A nil tracer times nothing, which is how the tracing overhead
// is measured.
type tracer struct {
	t0    time.Time
	keep  bool // record spans for the current item
	spans []span
	total map[string]time.Duration // busy time per layer
	ops   map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), keep: true, total: map[string]time.Duration{}, ops: map[string]int{}}
}

func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// span records [start, now) as a child of parent.
func (t *tracer) span(name string, parent, item int, start time.Duration, ops int) int {
	if t == nil || !t.keep {
		return -1
	}
	end := t.now()
	t.spans = append(t.spans, span{name: name, id: len(t.spans), parent: parent, item: item, start: start, end: end, ops: ops})
	return len(t.spans) - 1
}

// busy adds d to the layer's busy time over ops operations.
func (t *tracer) busy(name string, d time.Duration, ops int) {
	if t == nil {
		return
	}
	t.total[name] += d
	t.ops[name] += ops
}

// layers holds one fresh instance per replayed layer.
type layers struct {
	handler http.Handler     // server.New(...).Handler() over serverOptions
	est     *core.Estimator  // serverOptions
	unc     *core.Estimator  // CacheSize 0: every call runs the whole pipeline
	sess    *match.Session   // pinned to unc's matcher
	scEst   pipeline.Scratch // the scratches callers own
	scUnc   pipeline.Scratch
	scFront pipeline.Scratch
	queries []match.Query // the current item's match queries
}

func newLayers(ld *bake.Loaded, img string) (*layers, error) {
	l := &layers{}
	srvEst, err := core.NewWithIndex(ld.DB, nil, serverOptions, ld.Index, img)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Estimator: srvEst})
	if err != nil {
		return nil, err
	}
	l.handler = srv.Handler()
	if l.est, err = core.NewWithIndex(ld.DB, nil, serverOptions, ld.Index, img); err != nil {
		return nil, err
	}
	if l.unc, err = core.NewWithIndex(ld.DB, nil, core.Options{}, ld.Index, img); err != nil {
		return nil, err
	}
	l.sess = l.unc.Matcher().NewSession()
	return l, nil
}

// serve runs one item through the in-process handler and checks the
// answer's status.
func (l *layers) serve(it *item) error {
	rec := httptest.NewRecorder()
	l.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, it.path, bytes.NewReader(it.body)))
	if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), errorAnswer) {
		return fmt.Errorf("replayed %s answered %d: %.200s", it.path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

// serverSpan names the server-layer span of an item.
func serverSpan(it *item) string {
	switch it.path {
	case "/v1/batch":
		return "server.batch"
	case "/v1/recipe":
		return "server.recipe"
	}
	return "server.estimate"
}

// loop times fn over the item's phrases as one span.
func loop(t *tracer, name string, root, i int, phrases []string, fn func(string)) {
	start := t.now()
	for _, p := range phrases {
		fn(p)
	}
	t.span(name, root, i, start, len(phrases))
	t.busy(name, t.now()-start, len(phrases))
}

// frontEnd runs the stateless front-end layers over one item: tokenize,
// extract (re-tokenizing untimed before each timed Extract) and match on
// the extracted queries. With a nil tracer nothing is timed.
func (l *layers) frontEnd(t *tracer, root, i int, it *item) {
	loop(t, "pipeline.tokenize", root, i, it.phrases, func(p string) { l.scFront.Tokenize(p) })

	start := t.now()
	l.queries = l.queries[:0]
	var busy time.Duration
	for _, p := range it.phrases {
		l.scFront.Tokenize(p)
		c0 := t.now()
		ex := l.scFront.Extract(ner.RuleTagger{})
		busy += t.now() - c0
		if ex.Name != "" {
			l.queries = append(l.queries, match.Query{Name: ex.Name, State: ex.State, Temp: ex.Temp, DryFresh: ex.DryFresh})
		}
	}
	t.span("ner.extract", root, i, start, len(it.phrases))
	t.busy("ner.extract", busy, len(it.phrases))

	start = t.now()
	for _, q := range l.queries {
		l.sess.Match(q)
	}
	t.span("match.match", root, i, start, len(l.queries))
	t.busy("match.match", t.now()-start, len(l.queries))
}

// replayResult is what the replay measured.
type replayResult struct {
	t        *tracer
	overhead float64 // (traced − untraced)/untraced for the front-end pass
	loadMs   float64 // bake.LoadFile, median of setupRepeats
	newMs    float64 // core.NewWithIndex, median of setupRepeats
}

// maxTracedItems caps the items that get spans, which keeps a trace
// file at a few megabytes; every item is timed.
const maxTracedItems = 2000

// replay times every layer over items, in order.
func replay(img string, items []item) (*replayResult, error) {
	res := &replayResult{}
	var loads, news []float64
	var ld *bake.Loaded
	for range setupRepeats {
		t0 := time.Now()
		var err error
		if ld, err = bake.LoadFile(img); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := core.NewWithIndex(ld.DB, nil, serverOptions, ld.Index, img); err != nil {
			return nil, err
		}
		loads = append(loads, float64(t1.Sub(t0))/1e6)
		news = append(news, float64(time.Since(t1))/1e6)
	}
	res.loadMs, res.newMs = median(loads), median(news)

	l, err := newLayers(ld, img)
	if err != nil {
		return nil, err
	}
	defer l.sess.Close()
	t := newTracer()
	res.t = t
	every := max(1, len(items)/maxTracedItems)
	for i := range items {
		it := &items[i]
		t.keep = i%every == 0
		start := t.now()
		root := len(t.spans)
		if t.keep {
			t.spans = append(t.spans, span{name: "item", id: root, parent: -1, item: i, start: start})
		}

		c0 := t.now()
		if err := l.serve(it); err != nil {
			return nil, err
		}
		ops := max(it.lines, 1)
		name := serverSpan(it)
		t.span(name, root, i, c0, ops)
		t.busy(name, t.now()-c0, ops)
		loop(t, "core.estimate", root, i, it.phrases, func(p string) { l.est.EstimateIngredientScratch(p, &l.scEst) })
		loop(t, "core.estimate_uncached", root, i, it.phrases, func(p string) { l.unc.EstimateIngredientScratch(p, &l.scUnc) })
		l.frontEnd(t, root, i, it)

		if t.keep {
			t.spans[root].end = t.now()
			t.spans[root].ops = ops
		}
	}

	// The tracing overhead: the same front-end pass with and without
	// spans, on the now-warm scratches, alternated and taken at its best
	// of three so the order of the passes does not decide it.
	var traced, untraced time.Duration
	for rep := range 3 {
		t0 := time.Now()
		scratch := newTracer()
		for i := range items {
			l.frontEnd(scratch, -1, i, &items[i])
		}
		t1 := time.Now()
		for i := range items {
			l.frontEnd(nil, -1, i, &items[i])
		}
		if d := t1.Sub(t0); rep == 0 || d < traced {
			traced = d
		}
		if d := time.Since(t1); rep == 0 || d < untraced {
			untraced = d
		}
	}
	res.overhead = ratio(float64(traced-untraced), float64(untraced))
	return res, nil
}

// selfTime is total minus the separately timed parts, floored at zero;
// clamped reports that the floor applied, which means the parts cost
// more on their own than inside total (timer noise or cache effects).
func selfTime(total float64, parts ...float64) (v float64, clamped bool) {
	v = total
	for _, p := range parts {
		v -= p
	}
	if v < 0 {
		return 0, true
	}
	return v, false
}

// writeTrace writes spans in the Chrome trace-event format, which
// chrome://tracing and ui.perfetto.dev open directly.
func writeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	ev := make([]event, len(spans))
	for i, s := range spans {
		ev[i] = event{
			Name: s.name, Cat: "replay", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.id, "parent": s.parent, "item": s.item, "ops": s.ops},
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{ev, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
