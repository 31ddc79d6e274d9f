package server

// POST /v1/batch — the streaming bulk endpoint. The body is NDJSON:
// each line is either an EstimateRequest or a RecipeRequest, and each
// non-blank line produces exactly one NDJSON response line, in input
// order — an EstimateResponse, a RecipeResponse, or a BatchErrorBody
// carrying the 1-based input line number. Per-line failures never abort
// the stream; the only in-stream terminations are client disconnect and
// graceful drain (which ends the stream with a `draining` trailer line
// rather than hanging shutdown).
//
// The stream is processed in bounded windows: read up to BatchWindow
// lines (or ~batchWindowBytes), decode them into scratch-owned views,
// estimate the whole window through core.EstimateRecipesInto on
// BatchWorkers workers, render, write, flush, yield. Windowing is what
// ties an unbounded stream to bounded memory and bounded scheduling:
// between windows the goroutine yields and re-checks the drain signal,
// and the estimator only ever sees BatchWindow recipes at a time.
//
// Hot-path discipline matches codec.go: one batchScratch owns every
// buffer a stream touches, all of them grow-only, so a warm stream
// processes each window with zero heap allocations
// (TestServeBatchHotZeroAllocs pins this). Line payloads are decoded as
// unsafe views into the window buffer / decoder scratch; they die at
// compact(), after the window's output is rendered.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"nutriprofile/internal/core"
	"nutriprofile/internal/jsonx"
	"nutriprofile/internal/yield"
)

const (
	ndjsonContentType = "application/x-ndjson"
	// batchWindowBytes soft-caps the raw bytes one window consumes, so a
	// stream of maximal lines cannot turn BatchWindow into an unbounded
	// buffer. A single line may still reach MaxBodyBytes.
	batchWindowBytes = 512 << 10
)

// lineSpan locates one input line inside the window buffer. tooLong
// marks a line that exceeded the per-line byte cap — its bytes were
// discarded and only the error response remains to be rendered.
type lineSpan struct {
	off, end int
	line     int // 1-based input line number
	tooLong  bool
}

type batchItemKind uint8

const (
	itemError batchItemKind = iota
	itemEstimate
	itemRecipe
)

// batchItem is one decoded line awaiting estimation/encoding. Estimate
// and recipe items index into batchScratch.inputs/outcomes; error items
// carry their envelope inline.
type batchItem struct {
	kind   batchItemKind
	line   int
	idx    int
	status int
	code   string
	msg    string
}

// batchScratch is the per-stream arena: the window buffer, the rendered
// output, decoded line metadata, the estimator's input/outcome/result
// arenas and the phrase-view arena. Everything is grow-only across
// windows, so a warm stream stops allocating entirely.
type batchScratch struct {
	buf      []byte // raw input bytes: consumed window + unread tail
	out      []byte // rendered NDJSON for the current window
	spans    []lineSpan
	items    []batchItem
	inputs   []core.RecipeInput
	outcomes []core.RecipeOutcome
	arena    []core.IngredientResult
	ings     []string // phrase views; inputs' Phrases are sub-slices
	dec      jsonx.Decoder
}

// maxPooledBatch caps the buffer capacity a batch scratch may carry
// back into the pool — one oversized stream must not pin megabytes.
const maxPooledBatch = 4 << 20

var batchPool = sync.Pool{New: func() any {
	return &batchScratch{
		buf: make([]byte, 0, 64<<10),
		out: make([]byte, 0, 64<<10),
	}
}}

func getBatchScratch() *batchScratch { return batchPool.Get().(*batchScratch) }

func putBatchScratch(bs *batchScratch) {
	// Clear through cap, not len: entries parked beyond the current
	// length still hold views of request bytes and must not survive into
	// another stream (or pin dead buffers in the pool).
	clear(bs.ings[:cap(bs.ings)])
	clear(bs.inputs[:cap(bs.inputs)])
	clear(bs.items[:cap(bs.items)])
	clear(bs.outcomes[:cap(bs.outcomes)])
	clear(bs.arena[:cap(bs.arena)])
	bs.ings = bs.ings[:0]
	bs.inputs = bs.inputs[:0]
	bs.items = bs.items[:0]
	bs.outcomes = bs.outcomes[:0]
	bs.arena = bs.arena[:0]
	bs.spans = bs.spans[:0]
	bs.buf = bs.buf[:0]
	bs.out = bs.out[:0]
	bs.dec.Reset(nil)
	if cap(bs.buf)+cap(bs.out) > maxPooledBatch {
		return
	}
	batchPool.Put(bs)
}

// batchStream drives one /v1/batch request through the window loop.
type batchStream struct {
	s    *Server
	bs   *batchScratch
	body io.Reader
	dst  io.Writer
	ctx  context.Context
	// rc controls the underlying connection; flushOK latches to false
	// the first time the transport reports Flush unsupported (httptest
	// recorders, fuzz harness), falling back to unflushed writes.
	rc      *http.ResponseController
	flushOK bool

	line     int // input lines numbered so far
	consumed int // bytes of bs.buf consumed by the current window
	errs     int // error lines rendered in the current window
	discard  bool
	draining bool
	eof      bool
	readErr  error
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	bs := getBatchScratch()
	defer putBatchScratch(bs)
	st := batchStream{
		s:       s,
		bs:      bs,
		body:    r.Body,
		dst:     w,
		ctx:     r.Context(),
		rc:      http.NewResponseController(w),
		flushOK: true,
	}
	// HTTP/1.x servers close the request body once the handler starts
	// responding; a bulk stream writes and reads concurrently for its
	// whole life, so it must opt in to full-duplex. Ignore the error:
	// transports that don't support the verb (httptest recorders) don't
	// close the body on write either.
	_ = st.rc.EnableFullDuplex()
	// Where the transport supports read deadlines, drain can wake a read
	// blocked on a silent client (watchDrain); recorders fall back to
	// reads that drain cannot interrupt.
	if st.rc.SetReadDeadline(time.Time{}) == nil {
		defer st.watchDrain()()
	}
	// The status line commits before the first line is read: per-line
	// failures are in-stream envelopes, and an early 200 + flush lets
	// clients start their read loop immediately (avoiding the
	// write-write deadlock a full client-side send buffer would cause).
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	st.flush()
	st.run()
}

// watchDrain starts the one-shot drain watcher: when graceful shutdown
// begins, it moves the read deadline to now, so a read blocked on a
// client that has gone quiet returns and the stream can end with its
// trailer. No deadline is set otherwise — a read that times out makes
// net/http cancel the request context, which would end the stream of
// any client that merely pauses. The returned stop waits for the
// watcher and clears the deadline, so neither outlives the handler
// onto a reused connection.
func (st *batchStream) watchDrain() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-st.s.drainCh:
			_ = st.rc.SetReadDeadline(time.Now())
		case <-quit:
		}
	}()
	return func() {
		close(quit)
		<-done
		_ = st.rc.SetReadDeadline(time.Time{})
	}
}

func (st *batchStream) flush() {
	if st.flushOK && st.rc.Flush() != nil {
		st.flushOK = false
	}
}

// run is the window loop. Each pass reads one window, decodes it,
// estimates it, renders it, writes it, then reclaims the buffers and
// yields the processor — the cadence that keeps a 118k-line stream from
// monopolizing either memory or cores.
func (st *batchStream) run() {
	for {
		select {
		case <-st.s.drainCh:
			st.draining = true
		default:
		}
		if st.draining {
			st.trailer(http.StatusServiceUnavailable, "draining",
				"server is draining; stream truncated")
			return
		}
		st.readWindow()
		st.decodeWindow()
		if st.estimateWindow() != nil {
			return // request context dead: the client is gone
		}
		st.encodeWindow()
		if len(st.bs.out) > 0 {
			if _, err := st.dst.Write(st.bs.out); err != nil {
				return
			}
			st.flush()
		}
		if n := len(st.bs.items); n > 0 {
			st.s.reg.AddBatchWindow()
			st.s.reg.AddBatchLines(uint64(n))
			if st.errs > 0 {
				st.s.reg.AddBatchLineErrors(uint64(st.errs))
			}
		}
		st.compact()
		if st.readErr != nil {
			return // aborted mid-line; trailing torn bytes are dropped
		}
		if st.eof && len(st.bs.buf) == 0 {
			return
		}
		runtime.Gosched()
	}
}

// trailer ends the stream with one in-stream error line numbered for
// the next unanswered input line, so a client replaying a truncated
// stream knows exactly where to resume.
func (st *batchStream) trailer(status int, code, msg string) {
	bs := st.bs
	bs.out = appendBatchErrorBody(bs.out[:0], status, code, msg, st.line+1)
	bs.out = append(bs.out, '\n')
	if _, err := st.dst.Write(bs.out); err == nil {
		st.flush()
	}
}

// readWindow gathers up to BatchWindow lines (or batchWindowBytes) into
// bs.spans. Spans index into bs.buf, which only grows during a window —
// compaction happens in compact(), after the spans are dead.
func (st *batchStream) readWindow() {
	bs := st.bs
	bs.spans = bs.spans[:0]
	pos := 0
	maxLine := int(st.s.cfg.MaxBodyBytes)
	for {
		// Harvest complete lines already buffered.
		for len(bs.spans) < st.s.cfg.BatchWindow && pos < batchWindowBytes {
			i := bytes.IndexByte(bs.buf[pos:], '\n')
			if i < 0 {
				break
			}
			end := pos + i
			st.takeLine(pos, end)
			pos = end + 1
		}
		if len(bs.spans) >= st.s.cfg.BatchWindow || pos >= batchWindowBytes {
			break
		}
		if st.draining || st.eof || st.readErr != nil {
			break
		}
		// Input stalled with lines in hand: flush them rather than block.
		// A bulk sender keeps the buffer full, so its windows still reach
		// BatchWindow; a trickling client gets per-line latency instead
		// of waiting for a window it may never fill.
		if len(bs.spans) > 0 && bytes.IndexByte(bs.buf[pos:], '\n') < 0 {
			break
		}
		// A partial line past the per-line cap becomes an error span now;
		// its bytes are dropped and the rest of the line discarded as it
		// arrives, so one abusive line costs bounded memory.
		if !st.discard && len(bs.buf)-pos > maxLine {
			st.line++
			bs.spans = append(bs.spans, lineSpan{line: st.line, tooLong: true})
			st.discard = true
			bs.buf = bs.buf[:pos]
		}
		if st.discard {
			st.discardToNewline(pos)
			continue
		}
		st.fill()
	}
	// A final line without a trailing newline is valid NDJSON at clean
	// EOF. On a read error the tail is torn mid-line — never answer it.
	if st.eof && !st.discard && pos < len(bs.buf) &&
		len(bs.spans) < st.s.cfg.BatchWindow {
		st.takeLine(pos, len(bs.buf))
		pos = len(bs.buf)
	}
	st.consumed = pos
}

// takeLine records buf[off:end) as the next input line: blank lines are
// numbered but produce nothing; over-long lines produce an error span.
func (st *batchStream) takeLine(off, end int) {
	st.line++
	bs := st.bs
	if end > off && bs.buf[end-1] == '\r' {
		end--
	}
	if end-off > int(st.s.cfg.MaxBodyBytes) {
		bs.spans = append(bs.spans, lineSpan{line: st.line, tooLong: true})
		return
	}
	blank := true
	for _, c := range bs.buf[off:end] {
		if c != ' ' && c != '\t' {
			blank = false
			break
		}
	}
	if blank {
		return
	}
	bs.spans = append(bs.spans, lineSpan{off: off, end: end, line: st.line})
}

// discardToNewline reads and drops bytes of an over-long line. Bytes
// after its terminating newline are kept (moved down to pos); earlier
// spans all live below pos and are untouched by the move.
func (st *batchStream) discardToNewline(pos int) {
	st.fill()
	bs := st.bs
	tail := bs.buf[pos:]
	if i := bytes.IndexByte(tail, '\n'); i >= 0 {
		n := copy(tail, tail[i+1:])
		bs.buf = bs.buf[:pos+n]
		st.discard = false
	} else {
		bs.buf = bs.buf[:pos]
	}
}

// fill appends one read's worth of body bytes to bs.buf. A read blocks
// until the client sends, however long it pauses; only drain interrupts
// it, through the deadline watchDrain sets.
func (st *batchStream) fill() {
	bs := st.bs
	if len(bs.buf) == cap(bs.buf) {
		bs.buf = append(bs.buf, 0)[:len(bs.buf)]
	}
	for {
		select {
		case <-st.s.drainCh:
			st.draining = true
			return
		default:
		}
		n, err := st.body.Read(bs.buf[len(bs.buf):cap(bs.buf)])
		bs.buf = bs.buf[:len(bs.buf)+n]
		switch {
		case err == nil:
			if n > 0 {
				return
			}
		case errors.Is(err, io.EOF):
			st.eof = true
			return
		default:
			select {
			case <-st.s.drainCh:
				// The drain watcher's deadline woke this read: end the
				// stream with the trailer, not as a torn read.
				st.draining = true
			default:
				st.readErr = err
			}
			return
		}
	}
}

// compact reclaims the consumed window prefix. This is the moment every
// span — and every string view into the window — dies.
func (st *batchStream) compact() {
	bs := st.bs
	n := copy(bs.buf, bs.buf[st.consumed:])
	bs.buf = bs.buf[:n]
	st.consumed = 0
}

// decodeWindow turns spans into items. One plain Reset reclaims the
// decoder's unescape scratch for the window; each line then re-points
// the decoder with ResetKeep so earlier lines' views stay valid.
func (st *batchStream) decodeWindow() {
	bs := st.bs
	bs.items = bs.items[:0]
	bs.inputs = bs.inputs[:0]
	bs.ings = bs.ings[:0]
	bs.dec.Reset(nil)
	for i := range bs.spans {
		sp := &bs.spans[i]
		if sp.tooLong {
			st.errItem(sp.line, http.StatusRequestEntityTooLarge, "line_too_large",
				fmt.Sprintf("input line exceeds %d bytes", st.s.cfg.MaxBodyBytes))
			continue
		}
		st.decodeLine(sp)
	}
}

func (st *batchStream) errItem(line, status int, code, msg string) {
	st.bs.items = append(st.bs.items, batchItem{
		kind: itemError, line: line, status: status, code: code, msg: msg,
	})
}

func (st *batchStream) badJSON(line int, err error) {
	st.errItem(line, http.StatusBadRequest, "bad_json",
		"input line is not valid JSON for this route: "+err.Error())
}

// decodeLine parses one NDJSON line. The shape is dispatched by key —
// "phrase" selects the estimate form, any of "ingredients"/"servings"/
// "method" the recipe form — with exactly the validation vocabulary of
// the corresponding interactive route, so a batch line and a single
// request produce byte-identical success bodies (the golden
// differential test's invariant).
func (st *batchStream) decodeLine(sp *lineSpan) {
	bs := st.bs
	d := &bs.dec
	d.ResetKeep(bs.buf[sp.off:sp.end])
	isNull, err := d.ObjectStart()
	if err != nil {
		st.badJSON(sp.line, err)
		return
	}
	if isNull {
		st.errItem(sp.line, http.StatusBadRequest, "bad_request",
			`line must be an object with "phrase" or "ingredients"`)
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
	for first := true; ; first = false {
		key, ok, err := d.Member(first)
		if err != nil {
			st.badJSON(sp.line, err)
			return
		}
		if !ok {
			break
		}
		switch string(key) {
		case "phrase":
			hasPhrase = true
			val, isNull, err := d.String()
			if err != nil {
				st.badJSON(sp.line, err)
				return
			}
			if !isNull {
				phrase = val
			}
		case "ingredients":
			hasRecipe, hasIngs = true, true
			bs.ings = bs.ings[:ingsStart] // duplicate key: last wins
			isNull, err := d.ArrayStart()
			if err != nil {
				st.badJSON(sp.line, err)
				return
			}
			if isNull {
				continue
			}
			for efirst := true; ; efirst = false {
				more, err := d.ArrayNext(efirst)
				if err != nil {
					st.badJSON(sp.line, err)
					return
				}
				if !more {
					break
				}
				val, _, err := d.String()
				if err != nil {
					st.badJSON(sp.line, err)
					return
				}
				bs.ings = append(bs.ings, byteView(val))
			}
		case "servings":
			hasRecipe = true
			v, _, err := d.Int()
			if err != nil {
				st.badJSON(sp.line, err)
				return
			}
			servings = v
		case "method":
			hasRecipe = true
			val, isNull, err := d.String()
			if err != nil {
				st.badJSON(sp.line, err)
				return
			}
			if !isNull {
				method = val
			}
		default:
			st.badJSON(sp.line, fmt.Errorf("unknown field %q", key))
			return
		}
	}
	switch {
	case hasPhrase && hasRecipe:
		st.errItem(sp.line, http.StatusBadRequest, "bad_request",
			`line mixes "phrase" with recipe fields`)
		return
	case hasPhrase:
		p := strings.TrimSpace(byteView(phrase))
		if p == "" {
			st.errItem(sp.line, http.StatusBadRequest, "empty_phrase",
				`"phrase" must be a non-empty ingredient phrase`)
			return
		}
		bs.ings = append(bs.ings, p)
		bs.items = append(bs.items, batchItem{
			kind: itemEstimate, line: sp.line, idx: len(bs.inputs),
		})
		bs.inputs = append(bs.inputs, core.RecipeInput{
			Phrases:  bs.ings[len(bs.ings)-1 : len(bs.ings) : len(bs.ings)],
			Servings: 1,
		})
		return
	case !hasRecipe:
		st.errItem(sp.line, http.StatusBadRequest, "bad_request",
			`line must be an object with "phrase" or "ingredients"`)
		return
	}
	// Recipe form: the recipeHot validation vocabulary, per line.
	if !hasIngs || len(bs.ings) == ingsStart {
		st.errItem(sp.line, http.StatusBadRequest, "no_ingredients",
			`"ingredients" must list at least one phrase`)
		return
	}
	if servings == 0 {
		servings = 1
	}
	if servings < 0 {
		st.errItem(sp.line, http.StatusBadRequest, "bad_servings",
			fmt.Sprintf("servings must be positive, got %d", servings))
		return
	}
	m := yield.None
	if name := strings.ToLower(strings.TrimSpace(byteView(method))); name != "" {
		m = yield.ParseMethod(name)
		if m == yield.None && name != yield.None.String() {
			st.errItem(sp.line, http.StatusBadRequest, "bad_method",
				fmt.Sprintf("unknown cooking method %q", byteView(method)))
			return
		}
	}
	bs.items = append(bs.items, batchItem{
		kind: itemRecipe, line: sp.line, idx: len(bs.inputs),
	})
	bs.inputs = append(bs.inputs, core.RecipeInput{
		Phrases:  bs.ings[ingsStart:len(bs.ings):len(bs.ings)],
		Servings: int(servings),
		Method:   m,
	})
}

// estimateWindow runs the window's decoded inputs through the
// estimator's recipe pool into the stream-owned outcome/result arenas.
func (st *batchStream) estimateWindow() error {
	bs := st.bs
	if len(bs.inputs) == 0 {
		return nil
	}
	total := 0
	for i := range bs.inputs {
		total += len(bs.inputs[i].Phrases)
	}
	if cap(bs.outcomes) < len(bs.inputs) {
		bs.outcomes = make([]core.RecipeOutcome, len(bs.inputs))
	}
	bs.outcomes = bs.outcomes[:len(bs.inputs)]
	if cap(bs.arena) < total {
		bs.arena = make([]core.IngredientResult, total)
	}
	bs.arena = bs.arena[:total]
	return st.s.est.EstimateRecipesInto(st.ctx, bs.inputs, st.s.cfg.BatchWorkers, bs.outcomes, bs.arena)
}

// encodeWindow renders the window's items into bs.out, one NDJSON line
// per item, in input order.
func (st *batchStream) encodeWindow() {
	bs := st.bs
	bs.out = bs.out[:0]
	st.errs = 0
	for i := range bs.items {
		it := &bs.items[i]
		switch it.kind {
		case itemEstimate:
			resp := toEstimateResponse(bs.outcomes[it.idx].Result.Ingredients[0])
			bs.out = appendEstimateResponse(bs.out, &resp)
			bs.out = append(bs.out, '\n')
		case itemRecipe:
			o := &bs.outcomes[it.idx]
			if o.Err != nil {
				// Unreachable after decode-time validation, but the core
				// contract allows it; keep the stream alive regardless.
				st.errs++
				bs.out = appendBatchErrorBody(bs.out, http.StatusBadRequest, "bad_recipe", o.Err.Error(), it.line)
				bs.out = append(bs.out, '\n')
				continue
			}
			head := RecipeResponse{
				Servings:       o.Result.Servings,
				Method:         bs.inputs[it.idx].Method.String(),
				MappedFraction: o.Result.MappedFraction,
				Total:          o.Result.Total,
				PerServing:     o.Result.PerServing,
			}
			bs.out = appendRecipeResponseHeader(bs.out, &head)
			for j := range o.Result.Ingredients {
				if j > 0 {
					bs.out = append(bs.out, ',')
				}
				resp := toEstimateResponse(o.Result.Ingredients[j])
				bs.out = appendEstimateResponse(bs.out, &resp)
			}
			bs.out = appendRecipeResponseFooter(bs.out) // includes the line's \n
		default:
			st.errs++
			bs.out = appendBatchErrorBody(bs.out, it.status, it.code, it.msg, it.line)
			bs.out = append(bs.out, '\n')
		}
	}
}
