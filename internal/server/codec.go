package server

// The pooled request/response codec behind the estimation hot paths.
// Encoding is hand-written append-style (internal/jsonx primitives),
// byte-identical to what encoding/json produced for the same wire
// structs — the structs in handlers.go remain the executable spec, and
// codec_test.go pins every encoder against json.Marshal over the golden
// corpus and every error envelope. Decoding drives the jsonx pull
// decoder with the same accept/reject semantics as the json.Decoder +
// DisallowUnknownFields stack it replaces.
//
// Ownership: a serveScratch belongs to one request from checkout to
// Put. Request bytes live in sc.body (and the decoder's unescape
// scratch), phrase strings handed to core are unsafe views of those
// bytes — core never retains them (see core.EstimateIngredientScratch) —
// and the response is rendered into sc.out before anything is written
// to the ResponseWriter. Nothing of the request survives putServeScratch.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"unsafe"

	"nutriprofile/internal/jsonx"
	"nutriprofile/internal/pipeline"
)

// serveScratch is the per-request arena: body buffer, pull decoder,
// response buffer, the reusable ingredient-slice for recipe requests,
// and a full pipeline scratch so /v1/estimate runs the estimator
// without touching the pipeline pool.
type serveScratch struct {
	body        []byte
	out         []byte
	dec         jsonx.Decoder
	ingredients []string
	pipe        pipeline.Scratch
}

// maxPooledScratch caps the byte capacity a scratch may carry back into
// the pool, mirroring jsonx's buffer-pool policy.
const maxPooledScratch = 1 << 21

var scratchPool = sync.Pool{New: func() any {
	return &serveScratch{
		body: make([]byte, 0, 4096),
		out:  make([]byte, 0, 4096),
	}
}}

func getServeScratch() *serveScratch {
	return scratchPool.Get().(*serveScratch)
}

func putServeScratch(sc *serveScratch) {
	// Drop references to request bytes: the string views alias buffers
	// the next request will overwrite, and holding them would also pin
	// dead body arrays.
	clear(sc.ingredients)
	sc.ingredients = sc.ingredients[:0]
	sc.body = sc.body[:0]
	sc.out = sc.out[:0]
	sc.dec.Reset(nil)
	if cap(sc.body)+cap(sc.out) > maxPooledScratch {
		return
	}
	sc.pipe.Trim()
	scratchPool.Put(sc)
}

// byteView returns a string view of b without copying. The view aliases
// b and is only valid while b's backing array is untouched — every use
// here is bounded by the owning request.
func byteView(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// readBody slurps r into sc.body. With a warm scratch whose capacity
// has grown to the workload's body size, reading allocates nothing.
func (sc *serveScratch) readBody(r io.Reader) error {
	sc.body = sc.body[:0]
	for {
		if len(sc.body) == cap(sc.body) {
			sc.body = append(sc.body, 0)[:len(sc.body)]
		}
		n, err := r.Read(sc.body[len(sc.body):cap(sc.body)])
		sc.body = sc.body[:len(sc.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// --- request decoding ---------------------------------------------------

// decodeEstimate parses an EstimateRequest from sc.body, returning the
// phrase as a view into decoder-owned bytes.
func (sc *serveScratch) decodeEstimate() (phrase []byte, err error) {
	d := &sc.dec
	d.Reset(sc.body)
	isNull, err := d.ObjectStart()
	if err != nil || isNull {
		return nil, err
	}
	for first := true; ; first = false {
		key, ok, err := d.Member(first)
		if err != nil {
			return nil, err
		}
		if !ok {
			return phrase, nil
		}
		if string(key) != "phrase" {
			return nil, fmt.Errorf("unknown field %q", key)
		}
		val, isNull, err := d.String()
		if err != nil {
			return nil, err
		}
		if !isNull {
			phrase = val
		}
	}
}

// recipeRequestView is RecipeRequest decoded into scratch-owned memory:
// the ingredient strings are views into sc.body / the decoder scratch.
type recipeRequestView struct {
	ingredients []string
	servings    int
	method      string
}

// decodeRecipe parses a RecipeRequest from sc.body into sc.ingredients.
func (sc *serveScratch) decodeRecipe() (req recipeRequestView, err error) {
	d := &sc.dec
	d.Reset(sc.body)
	isNull, err := d.ObjectStart()
	if err != nil || isNull {
		return req, err
	}
	for first := true; ; first = false {
		key, ok, err := d.Member(first)
		if err != nil {
			return req, err
		}
		if !ok {
			req.ingredients = sc.ingredients
			return req, nil
		}
		switch string(key) {
		case "ingredients":
			sc.ingredients = sc.ingredients[:0]
			isNull, err := d.ArrayStart()
			if err != nil {
				return req, err
			}
			if isNull {
				continue
			}
			for efirst := true; ; efirst = false {
				more, err := d.ArrayNext(efirst)
				if err != nil {
					return req, err
				}
				if !more {
					break
				}
				val, _, err := d.String()
				if err != nil {
					return req, err
				}
				sc.ingredients = append(sc.ingredients, byteView(val))
			}
		case "servings":
			v, _, err := d.Int()
			if err != nil {
				return req, err
			}
			req.servings = int(v)
		case "method":
			val, isNull, err := d.String()
			if err != nil {
				return req, err
			}
			if !isNull {
				req.method = byteView(val)
			}
		default:
			return req, fmt.Errorf("unknown field %q", key)
		}
	}
}

// --- response encoding --------------------------------------------------

// Every append*Body helper renders the exact bytes json.NewEncoder(w).
// Encode(v) wrote for the corresponding wire struct, trailing newline
// included. Field order and omitempty conditions must track the struct
// tags in handlers.go; codec_test.go enforces the equivalence.

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
// array; the caller streams the elements and closes with
// appendRecipeResponseFooter. Split so recipe encoding never
// materializes an []EstimateResponse.
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

func appendRecipeResponseFooter(b []byte) []byte {
	return append(b, ']', '}', '\n')
}

func appendHealthzResponse(b []byte, h *HealthzResponse) []byte {
	b = append(b, `{"status":`...)
	b = jsonx.AppendString(b, h.Status)
	b = append(b, `,"foods":`...)
	b = jsonx.AppendInt(b, int64(h.Foods))
	return append(b, '}', '\n')
}

// --- error rendering ----------------------------------------------------

// errInto renders the structured error envelope into sc.out and returns
// (status, body) for the handler to write.
func errInto(sc *serveScratch, status int, code, msg string) (int, []byte) {
	sc.out = appendErrorBody(sc.out[:0], status, code, msg)
	return status, sc.out
}

// decodeErrInto maps a body-read or decode failure onto the error
// vocabulary: 413 when the size limit tripped, 400 bad_json otherwise.
func decodeErrInto(sc *serveScratch, err error) (int, []byte) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return errInto(sc, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
	}
	return errInto(sc, http.StatusBadRequest, "bad_json",
		"request body is not valid JSON for this route: "+err.Error())
}

// writeError renders an error envelope through a pooled buffer — the
// path for errors raised outside a scratch-owning handler (admission
// sheds).
func writeError(w http.ResponseWriter, status int, code, msg string) {
	buf := jsonx.GetBuffer()
	buf.B = appendErrorBody(buf.B, status, code, msg)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.B)
	jsonx.PutBuffer(buf)
}
