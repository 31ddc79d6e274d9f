package server

// Route handlers and their wire types. Conventions: every response body
// is JSON; every non-200 body is an ErrorBody whose code is a stable
// machine-readable string (the fuzz harness enforces this invariant for
// arbitrary inputs).
//
// /v1/estimate and /v1/recipe share one handler (handleItem → answer):
// each request is a one-item window of the /v1/batch codec in codec.go,
// decoded with its route's grammar and rendered by the same function as
// a batch line. The wire structs below are not what goes through
// encoding/json at request time — they are the *specification* of the
// wire format, and codec_test.go pins the hand-written encoders
// byte-for-byte against json.Marshal of these structs. Change a tag
// here and the codec tests will tell you where the encoder must follow.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"nutriprofile/internal/core"
	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/metrics"
	"nutriprofile/internal/nutrition"
)

// ErrorBody is the structured error wrapper on every non-200 response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable error.
type ErrorDetail struct {
	Code    string `json:"code"` // stable identifier: bad_request, overloaded, timeout, ...
	Status  int    `json:"status"`
	Message string `json:"message"`
}

// BatchErrorBody is the structured per-line error on a /v1/batch stream.
// It is ErrorBody plus the 1-based input line the error answers, so a
// client correlating by position can also correlate by number after a
// resync (blank lines are counted but never answered).
type BatchErrorBody struct {
	Error BatchErrorDetail `json:"error"`
}

// BatchErrorDetail carries the machine-readable per-line error.
type BatchErrorDetail struct {
	Code    string `json:"code"`
	Status  int    `json:"status"`
	Message string `json:"message"`
	Line    int    `json:"line"`
}

// EstimateRequest is the POST /v1/estimate body.
type EstimateRequest struct {
	Phrase string `json:"phrase"`
}

// EstimateResponse is the pipeline trace for one ingredient phrase.
type EstimateResponse struct {
	Phrase      string            `json:"phrase"`
	Matched     bool              `json:"matched"`
	NDB         int               `json:"ndb,omitempty"`
	Description string            `json:"description,omitempty"`
	Score       float64           `json:"score,omitempty"`
	Quantity    float64           `json:"quantity"`
	Unit        string            `json:"unit,omitempty"`
	UnitOrigin  string            `json:"unit_origin"`
	GramsVia    string            `json:"grams_via"`
	Grams       float64           `json:"grams"`
	Mapped      bool              `json:"mapped"`
	Profile     nutrition.Profile `json:"profile"`
}

func toEstimateResponse(r *core.IngredientResult) EstimateResponse {
	out := EstimateResponse{
		Phrase:     r.Phrase,
		Matched:    r.Matched,
		Quantity:   r.Quantity,
		Unit:       r.Unit,
		UnitOrigin: r.UnitOrigin.String(),
		GramsVia:   r.GramsVia.String(),
		Grams:      r.Grams,
		Mapped:     r.Mapped,
		Profile:    r.Profile,
	}
	if r.Matched {
		out.NDB = r.Match.NDB
		out.Description = r.Match.Desc
		out.Score = r.Match.Score
	}
	return out
}

// writeRendered flushes a pre-rendered JSON body. The handler owns the
// body's backing buffer, so this must be the request's final write.
func writeRendered(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	_, _ = w.Write(body)
}

// RecipeRequest is the POST /v1/recipe body.
type RecipeRequest struct {
	// Ingredients are the recipe's ingredient phrases, one per line.
	Ingredients []string `json:"ingredients"`
	// Servings defaults to 1.
	Servings int `json:"servings,omitempty"`
	// Method optionally names a cooking method ("baked", "boiled", ...)
	// to apply the cooking-yield correction to the totals. Unknown
	// names are rejected.
	Method string `json:"method,omitempty"`
}

// RecipeResponse aggregates a recipe estimate.
type RecipeResponse struct {
	Servings       int                `json:"servings"`
	Method         string             `json:"method"`
	MappedFraction float64            `json:"mapped_fraction"`
	Total          nutrition.Profile  `json:"total"`
	PerServing     nutrition.Profile  `json:"per_serving"`
	Ingredients    []EstimateResponse `json:"ingredients"`
}

// handleItem serves /v1/estimate or /v1/recipe, whichever g names, on a
// pooled arena.
func (s *Server) handleItem(g grammar) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		bs := getBatchScratch()
		status, body := s.answer(bs, r.Context(), r.Body, g)
		writeRendered(w, status, body)
		putBatchScratch(bs)
	}
}

// answer is the interactive steady-state path: one request answered as
// a one-item window of the /v1/batch codec — read, decode with the
// route's grammar, estimate, render — everything in arena-owned memory.
// Both routes estimate through core.EstimateRecipesInto on this
// goroutine, as their /v1/batch line would: the decoder turns an
// estimate into a one-phrase recipe of one serving. With a warm arena
// and phrase-cache hits it performs zero heap allocations on either
// route (TestServeEstimateHotZeroAllocs, TestServeRecipeHotAllocs). The
// returned body aliases bs.out.
func (s *Server) answer(bs *batchScratch, ctx context.Context, body io.Reader, g grammar) (int, []byte) {
	bs.rewind()
	if err := bs.readBody(body); err != nil {
		return bs.bodyError(err)
	}
	bs.decodeLine(bs.buf, 0, g)
	it := &bs.items[0]
	if it.kind == itemError {
		return bs.errorBody(it.status, it.code, it.msg)
	}
	if err := bs.estimate(ctx, s.est, 1); err != nil {
		return bs.timeoutBody(err)
	}
	if err := bs.outcomes[0].Err; err != nil {
		return bs.errorBody(http.StatusBadRequest, "bad_recipe", err.Error())
	}
	bs.out = append(bs.appendAnswer(bs.out[:0], it), '\n')
	return http.StatusOK, bs.out
}

// HealthzResponse is the GET /v1/healthz body.
type HealthzResponse struct {
	Status string `json:"status"`
	Foods  int    `json:"foods"` // composition-table size, a cheap liveness probe of the pipeline
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bs := getBatchScratch()
	resp := HealthzResponse{Status: "ok", Foods: s.est.DB().Len()}
	bs.out = appendHealthzResponse(bs.out, &resp)
	writeRendered(w, http.StatusOK, bs.out)
	putBatchScratch(bs)
}

// StatsResponse is the GET /v1/stats body: the full observability
// surface of one serving process. Stats is off the hot path and keeps
// encoding/json — its shape churns with every new counter, and pinning
// a hand encoder to it would buy nothing.
type StatsResponse struct {
	Memo struct {
		Phrase memo.Stats `json:"phrase"`
		Match  memo.Stats `json:"match"`
	} `json:"memo"`
	Shard   core.ShardStats      `json:"shard"`
	Matcher match.MatcherStats   `json:"matcher"`
	DB      core.SnapshotStats   `json:"db"`
	HTTP    metrics.Snapshot     `json:"http"`
	Runtime metrics.RuntimeStats `json:"runtime"`
}

// handleMetrics serves the registry in Prometheus text format — the
// same counters as /v1/stats HTTP section, rendered for scrape stacks
// — followed by the estimator's memo-cache families (hits, misses,
// evictions, doorkeeper rejections, and the derived hit-ratio gauge), the
// matcher-engine families (index shape plus the pruned ranking
// engine's work-avoidance counters), snapshotted at scrape time, and
// the Go heap gauges from the same 1 s runtime sampler /v1/stats
// reads. See memo_metrics.go and match_metrics.go.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.PrometheusContentType())
	if err := s.reg.WritePrometheus(w); err != nil {
		return
	}
	phrase, match := s.est.CacheStats()
	if err := writeMemoMetrics(w, phrase, match); err != nil {
		return
	}
	if err := writeMatchMetrics(w, s.est.MatcherStats()); err != nil {
		return
	}
	_ = metrics.WriteRuntimePrometheus(w, s.runtime.Sample())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var out StatsResponse
	out.Memo.Phrase, out.Memo.Match = s.est.CacheStats()
	out.Shard = s.est.ShardStats()
	out.Matcher = s.est.MatcherStats()
	out.DB = s.est.SnapshotStats()
	out.HTTP = s.reg.Snapshot()
	out.Runtime = s.runtime.Sample()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}
