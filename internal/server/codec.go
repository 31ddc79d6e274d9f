package server

// The request codec every estimation route shares. /v1/estimate and
// /v1/recipe answer as one-item windows of the /v1/batch codec: one
// pooled arena, one decoder (decodeLine, told which grammar its caller
// accepts), one estimate call (estimate, into core.EstimateRecipesInto),
// one success renderer (appendAnswer). Only failures render
// differently: an interactive route sends a status and an ErrorBody, a
// /v1/batch stream a numbered in-stream BatchErrorBody.
//
// Encoding is hand-written append-style (internal/jsonx primitives),
// byte-identical to what encoding/json produced for the same wire
// structs — the structs in handlers.go remain the executable spec, and
// codec_test.go pins every encoder against json.Marshal over the golden
// corpus and every error envelope. Decoding drives the jsonx pull
// decoder with the same accept/reject semantics as the json.Decoder +
// DisallowUnknownFields stack it replaces.
//
// Ownership: a batchScratch belongs to one request — an interactive
// request, a /v1/batch stream, a probe or a shed — from checkout to
// putBatchScratch. Request bytes live in bs.buf (and the decoder's
// unescape scratch), phrase strings handed to core are unsafe views of
// those bytes — core never retains them — and the response is rendered
// into bs.out before anything is written to the ResponseWriter. Nothing
// of the request survives putBatchScratch.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"nutriprofile/internal/core"
	"nutriprofile/internal/jsonx"
	"nutriprofile/internal/yield"
)

type batchItemKind uint8

const (
	itemError batchItemKind = iota
	itemEstimate
	itemRecipe
)

// batchItem is one decoded request awaiting estimation/encoding.
// Estimate and recipe items index into batchScratch.inputs/outcomes;
// error items carry their envelope inline.
type batchItem struct {
	kind   batchItemKind
	line   int // 1-based input line on /v1/batch; 0 on the interactive routes
	idx    int
	status int
	code   string
	msg    string
}

// batchScratch is the per-request arena: the body or window buffer, the
// rendered output, decoded line metadata, the estimator's
// input/outcome/result arenas and the phrase-view arena. Everything is
// grow-only across windows and requests, so a warm arena stops
// allocating entirely.
type batchScratch struct {
	buf      []byte // request body, or a stream's window + unread tail
	out      []byte // the rendered response, or a stream's current window
	spans    []lineSpan
	items    []batchItem
	inputs   []core.RecipeInput
	outcomes []core.RecipeOutcome
	arena    []core.IngredientResult
	ings     []string // phrase views; inputs' Phrases are sub-slices
	dec      jsonx.Decoder
	used     slotMarks
}

// slotMarks records how far each reference-holding slice of an arena has
// reached since checkout, so putBatchScratch clears exactly those slots.
type slotMarks struct{ items, inputs, outcomes, arena, ings int }

// maxPooledBatch caps the buffer capacity a scratch may carry back into
// the pool — one oversized request or stream must not pin megabytes.
const maxPooledBatch = 4 << 20

// batchPool serves every route. A new scratch starts small: most
// checkouts are interactive requests, probes and sheds, and a stream
// sizes its own read buffer (batchReadBytes).
var batchPool = sync.Pool{New: func() any {
	return &batchScratch{
		buf: make([]byte, 0, 4096),
		out: make([]byte, 0, 4096),
	}
}}

func getBatchScratch() *batchScratch { return batchPool.Get().(*batchScratch) }

func putBatchScratch(bs *batchScratch) {
	// Drop references to request bytes: the string views alias buffers
	// the next checkout will overwrite, and holding them would also pin
	// dead buffers in the pool. Slots past what this checkout used were
	// cleared when they were last put back; clearing through capacity
	// would make an interactive request that drew a stream-grown scratch
	// pay for a whole window's slots.
	bs.rewind()
	clear(bs.items[:bs.used.items])
	clear(bs.inputs[:bs.used.inputs])
	clear(bs.outcomes[:bs.used.outcomes])
	clear(bs.arena[:bs.used.arena])
	clear(bs.ings[:bs.used.ings])
	bs.used = slotMarks{}
	bs.spans = bs.spans[:0]
	bs.buf = bs.buf[:0]
	bs.out = bs.out[:0]
	if cap(bs.buf)+cap(bs.out) > maxPooledBatch {
		return
	}
	batchPool.Put(bs)
}

// rewind empties the per-item slices for the next window (an
// interactive request is a window of one), first noting how far each
// reached. One plain decoder Reset reclaims the unescape scratch; each
// line then re-points the decoder with ResetKeep so earlier lines'
// views stay valid.
func (bs *batchScratch) rewind() {
	bs.used.items = max(bs.used.items, len(bs.items))
	bs.used.inputs = max(bs.used.inputs, len(bs.inputs))
	bs.used.outcomes = max(bs.used.outcomes, len(bs.outcomes))
	bs.used.arena = max(bs.used.arena, len(bs.arena))
	bs.used.ings = max(bs.used.ings, len(bs.ings))
	bs.items = bs.items[:0]
	bs.inputs = bs.inputs[:0]
	bs.outcomes = bs.outcomes[:0]
	bs.arena = bs.arena[:0]
	bs.ings = bs.ings[:0]
	bs.dec.Reset(nil)
}

// byteView returns a string view of b without copying. The view aliases
// b and is only valid while b's backing array is untouched — every use
// here is bounded by the owning request.
func byteView(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// readBody slurps r into bs.buf. With a warm scratch whose capacity
// has grown to the workload's body size, reading allocates nothing.
func (bs *batchScratch) readBody(r io.Reader) error {
	bs.buf = bs.buf[:0]
	for {
		if len(bs.buf) == cap(bs.buf) {
			bs.buf = append(bs.buf, 0)[:len(bs.buf)]
		}
		n, err := r.Read(bs.buf[len(bs.buf):cap(bs.buf)])
		bs.buf = bs.buf[:len(bs.buf)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// --- request decoding ---------------------------------------------------

// grammar is the request shape a decodeLine caller accepts.
type grammar uint8

const (
	// lineGrammar is a /v1/batch line: either form, chosen by its keys.
	lineGrammar grammar = iota
	// estimateGrammar is a /v1/estimate body: "phrase" only.
	estimateGrammar
	// recipeGrammar is a /v1/recipe body: "ingredients", "servings" and
	// "method" only.
	recipeGrammar
)

// decodeLine decodes one request — a /v1/batch line or an interactive
// body — and appends its item, with its estimator input when it
// validates. It holds the API's one validation vocabulary, so a batch
// line and an interactive request produce byte-identical success
// bodies (the golden differential's invariant). A null request decodes
// like an empty object: "phrase" is missing on /v1/estimate,
// "ingredients" on /v1/recipe, and a batch line names neither form.
func (bs *batchScratch) decodeLine(src []byte, line int, g grammar) {
	d := &bs.dec
	d.ResetKeep(src)
	isNull, err := d.ObjectStart()
	if err != nil {
		bs.badJSON(line, g, err)
		return
	}
	var (
		hasPhrase bool
		hasRecipe bool
		hasIngs   bool
		phrase    []byte
		method    []byte
		servings  int64
		ingsStart = len(bs.ings)
	)
	for first := true; !isNull; first = false { // null: no members
		key, ok, err := d.Member(first)
		if err != nil {
			bs.badJSON(line, g, err)
			return
		}
		if !ok {
			break
		}
		switch {
		case string(key) == "phrase" && g != recipeGrammar:
			hasPhrase = true
			val, isNull, err := d.String()
			if err != nil {
				bs.badJSON(line, g, err)
				return
			}
			if !isNull {
				phrase = val
			}
		case string(key) == "ingredients" && g != estimateGrammar:
			hasRecipe, hasIngs = true, true
			bs.ings = bs.ings[:ingsStart] // duplicate key: last wins
			isNull, err := d.ArrayStart()
			if err != nil {
				bs.badJSON(line, g, err)
				return
			}
			if isNull {
				continue
			}
			for efirst := true; ; efirst = false {
				more, err := d.ArrayNext(efirst)
				if err != nil {
					bs.badJSON(line, g, err)
					return
				}
				if !more {
					break
				}
				val, _, err := d.String()
				if err != nil {
					bs.badJSON(line, g, err)
					return
				}
				bs.ings = append(bs.ings, byteView(val))
			}
		case string(key) == "servings" && g != estimateGrammar:
			hasRecipe = true
			v, _, err := d.Int()
			if err != nil {
				bs.badJSON(line, g, err)
				return
			}
			servings = v
		case string(key) == "method" && g != estimateGrammar:
			hasRecipe = true
			val, isNull, err := d.String()
			if err != nil {
				bs.badJSON(line, g, err)
				return
			}
			if !isNull {
				method = val
			}
		default:
			bs.badJSON(line, g, fmt.Errorf("unknown field %q", key))
			return
		}
	}
	if g == lineGrammar {
		switch {
		case hasPhrase && hasRecipe:
			bs.errItem(line, http.StatusBadRequest, "bad_request",
				`line mixes "phrase" with recipe fields`)
			return
		case hasPhrase:
			g = estimateGrammar
		case hasRecipe:
			g = recipeGrammar
		default:
			bs.errItem(line, http.StatusBadRequest, "bad_request",
				`line must be an object with "phrase" or "ingredients"`)
			return
		}
	}
	if g == estimateGrammar {
		p := strings.TrimSpace(byteView(phrase))
		if p == "" {
			bs.errItem(line, http.StatusBadRequest, "empty_phrase",
				`"phrase" must be a non-empty ingredient phrase`)
			return
		}
		bs.ings = append(bs.ings, p)
		n := len(bs.ings)
		bs.addItem(itemEstimate, line, core.RecipeInput{Phrases: bs.ings[n-1 : n : n], Servings: 1, LinesOnly: true})
		return
	}
	if !hasIngs || len(bs.ings) == ingsStart {
		bs.errItem(line, http.StatusBadRequest, "no_ingredients",
			`"ingredients" must list at least one phrase`)
		return
	}
	if servings == 0 {
		servings = 1
	}
	if servings < 0 {
		bs.errItem(line, http.StatusBadRequest, "bad_servings",
			fmt.Sprintf("servings must be positive, got %d", servings))
		return
	}
	m := yield.None
	if name := strings.ToLower(strings.TrimSpace(byteView(method))); name != "" {
		m = yield.ParseMethod(name)
		if m == yield.None && name != yield.None.String() {
			bs.errItem(line, http.StatusBadRequest, "bad_method",
				fmt.Sprintf("unknown cooking method %q", byteView(method)))
			return
		}
	}
	n := len(bs.ings)
	bs.addItem(itemRecipe, line, core.RecipeInput{
		Phrases:  bs.ings[ingsStart:n:n],
		Servings: int(servings),
		Method:   m,
	})
}

func (bs *batchScratch) addItem(kind batchItemKind, line int, in core.RecipeInput) {
	bs.items = append(bs.items, batchItem{kind: kind, line: line, idx: len(bs.inputs)})
	bs.inputs = append(bs.inputs, in)
}

func (bs *batchScratch) errItem(line, status int, code, msg string) {
	bs.items = append(bs.items, batchItem{
		kind: itemError, line: line, status: status, code: code, msg: msg,
	})
}

// badJSON records a decode failure, naming what failed to decode the
// way the caller's route calls it.
func (bs *batchScratch) badJSON(line int, g grammar, err error) {
	what := "request body"
	if g == lineGrammar {
		what = "input line"
	}
	bs.errItem(line, http.StatusBadRequest, "bad_json",
		what+" is not valid JSON for this route: "+err.Error())
}

// --- estimation ---------------------------------------------------------

// estimate runs the decoded inputs through core.EstimateRecipesInto
// into the arena's outcome and result slices: on the calling goroutine
// when workers is 1 (an interactive request, estimate or recipe), on
// the estimator's pool otherwise (a /v1/batch window).
func (bs *batchScratch) estimate(ctx context.Context, est *core.Estimator, workers int) error {
	total := 0
	for i := range bs.inputs {
		total += len(bs.inputs[i].Phrases)
	}
	bs.outcomes = slices.Grow(bs.outcomes[:0], len(bs.inputs))[:len(bs.inputs)]
	bs.arena = slices.Grow(bs.arena[:0], total)[:total]
	return est.EstimateRecipesInto(ctx, bs.inputs, workers, bs.outcomes, bs.arena)
}

// --- response encoding --------------------------------------------------

// appendAnswer renders item it's success body from its outcome — an
// EstimateResponse or a RecipeResponse, without a trailing newline.
// It is the one success renderer: encodeWindow and the interactive
// routes both call it.
func (bs *batchScratch) appendAnswer(b []byte, it *batchItem) []byte {
	o := &bs.outcomes[it.idx]
	if it.kind == itemEstimate {
		resp := toEstimateResponse(&o.Result.Ingredients[0])
		return appendEstimateResponse(b, &resp)
	}
	head := RecipeResponse{
		Servings:       o.Result.Servings,
		Method:         bs.inputs[it.idx].Method.String(),
		MappedFraction: o.Result.MappedFraction,
		Total:          o.Result.Total,
		PerServing:     o.Result.PerServing,
	}
	b = appendRecipeResponseHeader(b, &head)
	for j := range o.Result.Ingredients {
		if j > 0 {
			b = append(b, ',')
		}
		resp := toEstimateResponse(&o.Result.Ingredients[j])
		b = appendEstimateResponse(b, &resp)
	}
	return append(b, ']', '}')
}

// Every append*Body / append*Response helper renders the exact bytes
// json.Marshal produced for the corresponding wire struct. Field order
// and omitempty conditions must track the struct tags in handlers.go;
// codec_test.go enforces the equivalence.

// appendErrorBody renders an interactive error envelope, trailing
// newline included (json.Encoder.Encode's output).
func appendErrorBody(b []byte, status int, code, msg string) []byte {
	b = append(b, `{"error":{"code":`...)
	b = jsonx.AppendString(b, code)
	b = append(b, `,"status":`...)
	b = jsonx.AppendInt(b, int64(status))
	b = append(b, `,"message":`...)
	b = jsonx.AppendString(b, msg)
	b = append(b, '}', '}', '\n')
	return b
}

// appendBatchErrorBody renders a per-line batch error envelope (no
// trailing newline — the batch encoder owns line separation).
func appendBatchErrorBody(b []byte, status int, code, msg string, line int) []byte {
	b = append(b, `{"error":{"code":`...)
	b = jsonx.AppendString(b, code)
	b = append(b, `,"status":`...)
	b = jsonx.AppendInt(b, int64(status))
	b = append(b, `,"message":`...)
	b = jsonx.AppendString(b, msg)
	b = append(b, `,"line":`...)
	b = jsonx.AppendInt(b, int64(line))
	return append(b, '}', '}')
}

func appendEstimateResponse(b []byte, e *EstimateResponse) []byte {
	b = append(b, `{"phrase":`...)
	b = jsonx.AppendString(b, e.Phrase)
	b = append(b, `,"matched":`...)
	b = jsonx.AppendBool(b, e.Matched)
	if e.NDB != 0 {
		b = append(b, `,"ndb":`...)
		b = jsonx.AppendInt(b, int64(e.NDB))
	}
	if e.Description != "" {
		b = append(b, `,"description":`...)
		b = jsonx.AppendString(b, e.Description)
	}
	if e.Score != 0 {
		b = append(b, `,"score":`...)
		b = jsonx.AppendFloat(b, e.Score)
	}
	b = append(b, `,"quantity":`...)
	b = jsonx.AppendFloat(b, e.Quantity)
	if e.Unit != "" {
		b = append(b, `,"unit":`...)
		b = jsonx.AppendString(b, e.Unit)
	}
	b = append(b, `,"unit_origin":`...)
	b = jsonx.AppendString(b, e.UnitOrigin)
	b = append(b, `,"grams_via":`...)
	b = jsonx.AppendString(b, e.GramsVia)
	b = append(b, `,"grams":`...)
	b = jsonx.AppendFloat(b, e.Grams)
	b = append(b, `,"mapped":`...)
	b = jsonx.AppendBool(b, e.Mapped)
	b = append(b, `,"profile":`...)
	b = e.Profile.AppendJSON(b)
	return append(b, '}')
}

// appendRecipeResponseHeader renders everything before the ingredients
// array; appendAnswer streams the elements and closes the body, so
// recipe encoding never materializes an []EstimateResponse.
func appendRecipeResponseHeader(b []byte, r *RecipeResponse) []byte {
	b = append(b, `{"servings":`...)
	b = jsonx.AppendInt(b, int64(r.Servings))
	b = append(b, `,"method":`...)
	b = jsonx.AppendString(b, r.Method)
	b = append(b, `,"mapped_fraction":`...)
	b = jsonx.AppendFloat(b, r.MappedFraction)
	b = append(b, `,"total":`...)
	b = r.Total.AppendJSON(b)
	b = append(b, `,"per_serving":`...)
	b = r.PerServing.AppendJSON(b)
	b = append(b, `,"ingredients":[`...)
	return b
}

func appendHealthzResponse(b []byte, h *HealthzResponse) []byte {
	b = append(b, `{"status":`...)
	b = jsonx.AppendString(b, h.Status)
	b = append(b, `,"foods":`...)
	b = jsonx.AppendInt(b, int64(h.Foods))
	return append(b, '}', '\n')
}

// --- error rendering ----------------------------------------------------

// errorBody renders an interactive error envelope into bs.out and
// returns (status, body) for the handler to write.
func (bs *batchScratch) errorBody(status int, code, msg string) (int, []byte) {
	bs.out = appendErrorBody(bs.out[:0], status, code, msg)
	return status, bs.out
}

// bodyError maps a body-read failure onto the error vocabulary: 413
// when the size limit tripped, 400 bad_json otherwise.
func (bs *batchScratch) bodyError(err error) (int, []byte) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return bs.errorBody(http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
	}
	return bs.errorBody(http.StatusBadRequest, "bad_json",
		"request body is not valid JSON for this route: "+err.Error())
}

// timeoutBody maps a context error to the wire: 504 for an expired
// deadline (the request exceeded RequestTimeout), 503 when the client
// went away or the server is draining.
func (bs *batchScratch) timeoutBody(err error) (int, []byte) {
	if errors.Is(err, context.DeadlineExceeded) {
		return bs.errorBody(http.StatusGatewayTimeout, "timeout",
			"request exceeded the per-request deadline")
	}
	return bs.errorBody(http.StatusServiceUnavailable, "canceled",
		"request canceled before completion")
}

// writeError renders an error envelope through a pooled arena — the
// path for errors raised outside an estimation handler (admission
// sheds, /admin/reload).
func writeError(w http.ResponseWriter, status int, code, msg string) {
	bs := getBatchScratch()
	_, body := bs.errorBody(status, code, msg)
	writeRendered(w, status, body)
	putBatchScratch(bs)
}
