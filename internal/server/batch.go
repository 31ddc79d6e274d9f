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
// The stream is processed in bounded windows: read the lines one read
// delivers into the stream's batchReadBytes buffer (at most BatchWindow
// of them), decode them into arena-owned views with the same decoder
// the interactive routes use (lineGrammar: either form, chosen by its
// keys), estimate the whole window through core.EstimateRecipesInto on
// BatchWorkers workers, render every answer through the renderer the
// interactive routes share, write, flush, yield. Windowing is what ties
// an unbounded stream to bounded memory and bounded scheduling: between
// windows the goroutine yields and re-checks the drain signal, and the
// estimator only ever sees BatchWindow recipes at a time.
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
	"time"
)

const (
	ndjsonContentType = "application/x-ndjson"
	// batchReadBytes is the capacity of a stream's read buffer, and so
	// the bound that sizes a window: a window closes at the first partial
	// tail while it holds lines, so it is the complete lines one read
	// delivers (at most BatchWindow of them). A bulk sender's windows of
	// generated paper-corpus recipe lines hold about 52–62 of them. Only
	// a line longer than the buffer grows it, for the rest of the stream.
	batchReadBytes = 64 << 10
	// batchWindowBytes soft-caps the raw bytes one window consumes once a
	// long line has grown the read buffer, so a stream of maximal lines
	// cannot turn BatchWindow into an unbounded buffer. A single line may
	// still reach MaxBodyBytes.
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
	// The stream reads through a batchReadBytes buffer whatever capacity
	// the pooled scratch brought from the requests it served before, so
	// its windows do not depend on them.
	if cap(st.bs.buf) != batchReadBytes {
		st.bs.buf = make([]byte, 0, batchReadBytes)
	}
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
		if st.bs.estimate(st.ctx, st.s.est, st.s.cfg.BatchWorkers) != nil {
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

// readWindow gathers the next window's lines into bs.spans: the complete
// lines buffered once a read has delivered some, up to BatchWindow lines
// (or batchWindowBytes). Spans index into bs.buf, which only grows during
// a window — compaction happens in compact(), after the spans are dead.
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
		// A partial tail with lines in hand closes the window rather than
		// read again, which could block. So a window is the complete lines
		// one read delivered: a bulk sender's fill the read buffer, and a
		// trickling client gets per-line latency instead of waiting for a
		// window it may never fill.
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

// decodeWindow turns the window's spans into items.
func (st *batchStream) decodeWindow() {
	bs := st.bs
	bs.rewind()
	for i := range bs.spans {
		sp := &bs.spans[i]
		if sp.tooLong {
			bs.errItem(sp.line, http.StatusRequestEntityTooLarge, "line_too_large",
				fmt.Sprintf("input line exceeds %d bytes", st.s.cfg.MaxBodyBytes))
			continue
		}
		bs.decodeLine(bs.buf[sp.off:sp.end], sp.line, lineGrammar)
	}
}

// encodeWindow renders the window's items into bs.out, one NDJSON line
// per item, in input order.
func (st *batchStream) encodeWindow() {
	bs := st.bs
	bs.out = bs.out[:0]
	st.errs = 0
	for i := range bs.items {
		it := &bs.items[i]
		switch {
		case it.kind == itemError:
			st.errs++
			bs.out = appendBatchErrorBody(bs.out, it.status, it.code, it.msg, it.line)
		case bs.outcomes[it.idx].Err != nil:
			// Unreachable after decode-time validation, but the core
			// contract allows it; keep the stream alive regardless.
			st.errs++
			bs.out = appendBatchErrorBody(bs.out, http.StatusBadRequest, "bad_recipe",
				bs.outcomes[it.idx].Err.Error(), it.line)
		default:
			bs.out = bs.appendAnswer(bs.out, it)
		}
		bs.out = append(bs.out, '\n')
	}
}
