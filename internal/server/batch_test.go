package server

// Tests for the streaming /v1/batch bulk endpoint.
//
// The load-bearing invariant is the golden differential: a line sent
// through /v1/batch must produce the byte-identical body the same
// request would get from /v1/estimate or /v1/recipe. Everything else —
// per-line error envelopes, over-long line recovery, incremental
// window flushes, the draining trailer, bulk admission, and the
// no-starvation storm — pins the streaming semantics around that core.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"nutriprofile/internal/recipedb"
)

// postBatch drives a complete NDJSON body through the batch route via a
// recorder. No real streaming happens — the whole response is buffered —
// which is exactly what the semantic tests want.
func postBatch(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
	req.Header.Set("Content-Type", ndjsonContentType)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// batchSplit splits an NDJSON response into its lines (without the
// terminating newlines).
func batchSplit(t *testing.T, body []byte) [][]byte {
	t.Helper()
	if len(body) == 0 {
		return nil
	}
	if body[len(body)-1] != '\n' {
		t.Fatalf("batch response does not end in a newline: %q", body)
	}
	return bytes.Split(body[:len(body)-1], []byte{'\n'})
}

func decodeBatchError(t *testing.T, line []byte) BatchErrorBody {
	t.Helper()
	var eb BatchErrorBody
	if err := json.Unmarshal(line, &eb); err != nil {
		t.Fatalf("error line is not a BatchErrorBody: %v (line %q)", err, line)
	}
	if eb.Error.Code == "" || eb.Error.Message == "" || eb.Error.Status == 0 || eb.Error.Line <= 0 {
		t.Fatalf("malformed batch error %+v (line %q)", eb, line)
	}
	return eb
}

// TestBatchGoldenDifferential is the acceptance invariant: the 25-recipe
// golden corpus plus a 1000-recipe generated corpus go through /v1/batch,
// and every response line must be byte-identical to what the single
// interactive route returns for the same request body.
func TestBatchGoldenDifferential(t *testing.T) {
	corpus := loadCorpus(t)
	gen, err := recipedb.Generate(recipedb.Config{NumRecipes: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	type wire struct {
		route string
		body  []byte
	}
	var reqs []wire
	var ndjson bytes.Buffer
	add := func(route string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, wire{route: route, body: b})
		ndjson.Write(b)
		ndjson.WriteByte('\n')
	}
	for _, rec := range corpus {
		add("/v1/recipe", RecipeRequest{Ingredients: rec.Ingredients, Servings: rec.Servings, Method: rec.Method})
	}
	for i := range gen.Recipes {
		rec := &gen.Recipes[i]
		ings := make([]string, len(rec.Ingredients))
		for j := range rec.Ingredients {
			ings[j] = rec.Ingredients[j].Phrase
		}
		add("/v1/recipe", RecipeRequest{Ingredients: ings, Servings: rec.Servings, Method: rec.Method.String()})
		if i%5 == 0 {
			add("/v1/estimate", EstimateRequest{Phrase: rec.Ingredients[0].Phrase})
		}
	}

	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/batch", ndjsonContentType, bytes.NewReader(ndjson.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Fatalf("batch Content-Type %q, want %q", ct, ndjsonContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := batchSplit(t, raw)
	if len(lines) != len(reqs) {
		t.Fatalf("batch returned %d lines for %d inputs", len(lines), len(reqs))
	}

	for i, ln := range lines {
		single, err := http.Post(ts.URL+reqs[i].route, "application/json", bytes.NewReader(reqs[i].body))
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(single.Body)
		single.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if single.StatusCode != http.StatusOK {
			t.Fatalf("line %d: single request to %s got status %d (%s)", i+1, reqs[i].route, single.StatusCode, want)
		}
		if got := string(ln) + "\n"; got != string(want) {
			t.Fatalf("line %d (%s): batch line diverges from single response\nrequest: %s\nbatch:   %s\nsingle:  %s",
				i+1, reqs[i].route, reqs[i].body, got, want)
		}
	}
}

// TestBatchLineSemantics exercises the per-line contract on one stream:
// blank lines are numbered but skipped, CRLF is tolerated, a final
// unterminated line is answered at clean EOF, and every malformed line
// produces its interactive route's error code in-stream, numbered, while
// the stream keeps going.
func TestBatchLineSemantics(t *testing.T) {
	s := newTestServer(t, nil)
	input := `{"phrase":"2 cups all-purpose flour"}` + "\n" + // 1: estimate
		" \t\n" + // 2: blank — numbered, skipped
		`{"ingredients":["1 cup whole milk"],"servings":2,"method":"baked"}` + "\r\n" + // 3: recipe, CRLF
		"not json\n" + // 4
		`{"phrase":""}` + "\n" + // 5
		`{"ingredients":[]}` + "\n" + // 6
		`{"ingredients":["salt"],"servings":-1}` + "\n" + // 7
		`{"ingredients":["salt"],"method":"nuked"}` + "\n" + // 8
		`{"phrase":"salt","ingredients":["salt"]}` + "\n" + // 9: mixed shapes
		`{"bogus":1}` + "\n" + // 10
		"null\n" + // 11
		`{}` // 12: no trailing newline — still answered at clean EOF

	w := postBatch(t, s.Handler(), input)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	lines := batchSplit(t, w.Body.Bytes())
	if len(lines) != 11 {
		t.Fatalf("got %d lines, want 11:\n%s", len(lines), w.Body.String())
	}

	var est EstimateResponse
	if err := json.Unmarshal(lines[0], &est); err != nil || !est.Matched {
		t.Fatalf("line 1 is not a matched estimate: %v (%s)", err, lines[0])
	}
	var rr RecipeResponse
	if err := json.Unmarshal(lines[1], &rr); err != nil || rr.Servings != 2 || rr.Method != "baked" {
		t.Fatalf("line 3 is not the expected recipe response: %v (%s)", err, lines[1])
	}

	wantErrs := []struct {
		line   int
		status int
		code   string
	}{
		{4, http.StatusBadRequest, "bad_json"},
		{5, http.StatusBadRequest, "empty_phrase"},
		{6, http.StatusBadRequest, "no_ingredients"},
		{7, http.StatusBadRequest, "bad_servings"},
		{8, http.StatusBadRequest, "bad_method"},
		{9, http.StatusBadRequest, "bad_request"},
		{10, http.StatusBadRequest, "bad_json"},
		{11, http.StatusBadRequest, "bad_request"},
		{12, http.StatusBadRequest, "bad_request"},
	}
	for i, want := range wantErrs {
		eb := decodeBatchError(t, lines[2+i])
		if eb.Error.Line != want.line || eb.Error.Status != want.status || eb.Error.Code != want.code {
			t.Errorf("error %d: got (line %d, status %d, %s), want (line %d, status %d, %s)",
				i, eb.Error.Line, eb.Error.Status, eb.Error.Code, want.line, want.status, want.code)
		}
	}
}

// TestBatchOversizeLine pins per-line isolation of the body-size limit:
// an over-long line — whether it arrives complete or has to be discarded
// incrementally because it dwarfs the read buffer — costs one 413 line,
// and the stream resynchronizes on the next newline.
func TestBatchOversizeLine(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 256 })
	var input bytes.Buffer
	input.WriteString(`{"phrase":"2 cups all-purpose flour"}` + "\n")             // 1
	input.WriteString(`{"phrase":"` + strings.Repeat("a", 600) + `"}` + "\n")     // 2: complete over-long line
	input.WriteString(`{"phrase":"` + strings.Repeat("b", 200<<10) + `"}` + "\n") // 3: larger than the read buffer
	input.WriteString(`{"phrase":"1 cup whole milk"}` + "\n")                     // 4

	w := postBatch(t, s.Handler(), input.String())
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	lines := batchSplit(t, w.Body.Bytes())
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), w.Body.String())
	}
	for _, i := range []int{0, 3} {
		var est EstimateResponse
		if err := json.Unmarshal(lines[i], &est); err != nil {
			t.Fatalf("line %d is not an estimate: %v (%s)", i+1, err, lines[i])
		}
	}
	for _, i := range []int{1, 2} {
		eb := decodeBatchError(t, lines[i])
		if eb.Error.Code != "line_too_large" || eb.Error.Status != http.StatusRequestEntityTooLarge || eb.Error.Line != i+1 {
			t.Fatalf("line %d: got (%s, %d, line %d), want (line_too_large, 413, line %d)",
				i+1, eb.Error.Code, eb.Error.Status, eb.Error.Line, i+1)
		}
	}
}

// batchClientStream opens a real streaming request against ts: the body
// is an io.Pipe the test writes to, and response lines arrive on a
// channel as the server flushes them.
type batchClientStream struct {
	pw    *io.PipeWriter
	resp  *http.Response
	lines chan string
}

func openBatchStream(t *testing.T, ts *httptest.Server) *batchClientStream {
	t.Helper()
	return openBatchStreamLen(t, ts, 0)
}

// openBatchStreamLen is openBatchStream with a declared body length:
// n > 0 sends a fixed-length body of n bytes, 0 a chunked one.
func openBatchStreamLen(t *testing.T, ts *httptest.Server, n int64) *batchClientStream {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = n
	req.Header.Set("Content-Type", ndjsonContentType)
	resp, err := ts.Client().Do(req) // returns as soon as the server commits the status line
	if err != nil {
		t.Fatal(err)
	}
	cs := &batchClientStream{pw: pw, resp: resp, lines: make(chan string, 16)}
	t.Cleanup(func() {
		pw.Close()
		resp.Body.Close()
	})
	go func() {
		br := bufio.NewReader(resp.Body)
		for {
			ln, err := br.ReadString('\n')
			if ln != "" {
				cs.lines <- ln
			}
			if err != nil {
				close(cs.lines)
				return
			}
		}
	}()
	return cs
}

func (cs *batchClientStream) write(t *testing.T, s string) {
	t.Helper()
	if _, err := cs.pw.Write([]byte(s)); err != nil {
		t.Fatalf("writing request line: %v", err)
	}
}

func (cs *batchClientStream) readLine(t *testing.T) string {
	t.Helper()
	select {
	case ln, ok := <-cs.lines:
		if !ok {
			t.Fatal("stream ended while expecting a response line")
		}
		return ln
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a response line — the window did not flush")
		return ""
	}
}

func (cs *batchClientStream) expectEnd(t *testing.T) {
	t.Helper()
	select {
	case ln, ok := <-cs.lines:
		if ok {
			t.Fatalf("expected end of stream, got line %q", ln)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the stream to end")
	}
}

// TestBatchIncrementalFlush pins the streaming property itself: a
// response line must arrive while the request body is still open —
// windows flush as input stalls, they don't wait for EOF or for
// BatchWindow lines to accumulate.
func TestBatchIncrementalFlush(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cs := openBatchStream(t, ts)
	if cs.resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", cs.resp.StatusCode)
	}

	cs.write(t, `{"phrase":"2 cups all-purpose flour"}`+"\n")
	ln1 := cs.readLine(t) // request body still open: this is a mid-stream flush
	var est EstimateResponse
	if err := json.Unmarshal([]byte(ln1), &est); err != nil || !est.Matched {
		t.Fatalf("first streamed line: %v (%s)", err, ln1)
	}

	cs.write(t, `{"ingredients":["1 cup whole milk"],"servings":3}`+"\n")
	ln2 := cs.readLine(t)
	var rr RecipeResponse
	if err := json.Unmarshal([]byte(ln2), &rr); err != nil || rr.Servings != 3 {
		t.Fatalf("second streamed line: %v (%s)", err, ln2)
	}

	cs.pw.Close() // clean EOF: the stream must terminate, not hang
	cs.expectEnd(t)
}

// TestBatchDrainTrailer pins graceful shutdown against an open stream:
// drain must not hang waiting for the client, and must not silently
// truncate — the stream ends with one `draining` trailer carrying the
// next unanswered line number, so the client knows where to resume.
func TestBatchDrainTrailer(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cs := openBatchStream(t, ts)
	cs.write(t, `{"phrase":"2 cups all-purpose flour"}`+"\n")
	cs.readLine(t)
	cs.write(t, `{"phrase":"1 cup whole milk"}`+"\n")
	cs.readLine(t)

	s.startDrain() // what Serve does on shutdown, without tearing down ts

	trailer := cs.readLine(t)
	eb := decodeBatchError(t, []byte(trailer))
	if eb.Error.Code != "draining" || eb.Error.Status != http.StatusServiceUnavailable {
		t.Fatalf("trailer (%s, %d), want (draining, 503): %s", eb.Error.Code, eb.Error.Status, trailer)
	}
	if eb.Error.Line != 3 {
		t.Fatalf("trailer resume line %d, want 3 (two lines were answered)", eb.Error.Line)
	}
	cs.pw.Close()
	cs.expectEnd(t)
}

// TestBatchDrainSilentStream: drain also reaches a stream whose client
// has sent no complete line — nothing at all, on a chunked or a
// fixed-length body, or half a line. The blocked read is woken and the
// stream ends with the `draining` trailer naming line 1.
func TestBatchDrainSilentStream(t *testing.T) {
	for _, tc := range []struct {
		name   string
		length int64
		sent   string
	}{
		{"silent-chunked", 0, ""},
		{"silent-fixed-length", 1 << 10, ""},
		{"torn-line", 0, `{"phrase":"2 cups`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := newTestServer(t, nil)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			cs := openBatchStreamLen(t, ts, tc.length)
			if tc.sent != "" {
				cs.write(t, tc.sent)
			}
			time.Sleep(100 * time.Millisecond) // let the handler block in its read
			s.startDrain()

			trailer := cs.readLine(t)
			eb := decodeBatchError(t, []byte(trailer))
			if eb.Error.Code != "draining" || eb.Error.Line != 1 {
				t.Fatalf("trailer (%s, line %d), want (draining, line 1): %s", eb.Error.Code, eb.Error.Line, trailer)
			}
			cs.pw.Close()
			cs.expectEnd(t)
		})
	}
}

// TestBatchClientPause: a client that pauses between lines keeps its
// stream, and every line is answered, on a chunked and on a
// fixed-length body. Reads carry no deadline until drain: a read that
// times out makes net/http cancel the request context, and on a
// chunked body the timeout error is sticky.
func TestBatchClientPause(t *testing.T) {
	lines := []string{
		`{"phrase":"2 cups all-purpose flour"}` + "\n",
		`{"ingredients":["1 cup whole milk"],"servings":3}` + "\n",
		`{"phrase":"1 teaspoon salt"}` + "\n",
	}
	total := 0
	for _, l := range lines {
		total += len(l)
	}
	for _, tc := range []struct {
		name   string
		length int64
	}{
		{"chunked", 0},
		{"fixed-length", int64(total)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := newTestServer(t, nil)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			cs := openBatchStreamLen(t, ts, tc.length)
			for i, l := range lines {
				if i > 0 {
					time.Sleep(400 * time.Millisecond)
				}
				cs.write(t, l)
				if ln := cs.readLine(t); strings.Contains(ln, `"error"`) {
					t.Fatalf("line %d after a pause answered with an error: %s", i+1, ln)
				}
			}
			cs.pw.Close()
			cs.expectEnd(t)
		})
	}
}

// TestBatchBulkCapacity pins bulk admission: streams beyond
// MaxBulkStreams shed with a structured 429 before any body is read,
// interactive traffic is unaffected, and the slot is reusable once the
// stream ends.
func TestBatchBulkCapacity(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBulkStreams = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cs := openBatchStream(t, ts) // holds the only bulk slot

	resp, err := http.Post(ts.URL+"/v1/batch", ndjsonContentType, strings.NewReader(`{"phrase":"salt"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != "bulk_capacity" {
		t.Fatalf("shed body: %v (%s)", err, body)
	}

	// Interactive traffic is admitted independently of bulk capacity.
	ir, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(`{"phrase":"2 cups all-purpose flour"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ir.Body)
	ir.Body.Close()
	if ir.StatusCode != http.StatusOK {
		t.Fatalf("interactive request under full bulk capacity: status %d", ir.StatusCode)
	}

	// End the held stream; its slot must become available again.
	cs.pw.Close()
	cs.expectEnd(t)
	deadline := time.Now().Add(5 * time.Second)
	for {
		r2, err := http.Post(ts.URL+"/v1/batch", ndjsonContentType, strings.NewReader(`{"phrase":"salt"}`+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if r2.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bulk slot not released after stream end: status %d", r2.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchStarvationStorm is the no-starvation contract under
// saturation: 32 interactive clients against 4 bulk streams on a server
// with 2 bulk slots. Every response must be a 200 or a structured 429,
// interactive traffic must keep succeeding while bulk runs, and every
// admitted bulk stream must deliver its exact line count with no torn
// or error lines.
func TestBatchStarvationStorm(t *testing.T) {
	const (
		bulkStreams   = 4
		bulkLines     = 256
		interactive   = 32
		reqsPerClient = 20
	)
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 16
		c.MaxBulkStreams = 2
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var bulkBody bytes.Buffer
	for i := 0; i < bulkLines; i++ {
		if i%2 == 0 {
			bulkBody.WriteString(`{"phrase":"2 cups all-purpose flour"}` + "\n")
		} else {
			bulkBody.WriteString(`{"ingredients":["1 cup whole milk","salt"],"servings":2}` + "\n")
		}
	}

	type bulkResult struct {
		status int
		lines  int
		errs   int
		fail   string
	}
	bulkCh := make(chan bulkResult, bulkStreams)
	for b := 0; b < bulkStreams; b++ {
		go func() {
			var res bulkResult
			defer func() { bulkCh <- res }()
			resp, err := http.Post(ts.URL+"/v1/batch", ndjsonContentType, bytes.NewReader(bulkBody.Bytes()))
			if err != nil {
				res.fail = err.Error()
				return
			}
			defer resp.Body.Close()
			res.status = resp.StatusCode
			if resp.StatusCode != http.StatusOK {
				var eb ErrorBody
				if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Code == "" {
					res.fail = fmt.Sprintf("shed stream body is not a structured error: %v", err)
				}
				return
			}
			br := bufio.NewReaderSize(resp.Body, 1<<20)
			for {
				ln, err := br.ReadBytes('\n')
				if len(ln) > 0 {
					if ln[len(ln)-1] != '\n' {
						res.fail = "torn final line"
						return
					}
					if !json.Valid(ln) {
						res.fail = fmt.Sprintf("invalid JSON line: %q", ln)
						return
					}
					if bytes.HasPrefix(ln, []byte(`{"error"`)) {
						res.errs++
					}
					res.lines++
				}
				if err == io.EOF {
					return
				}
				if err != nil {
					res.fail = err.Error()
					return
				}
			}
		}()
	}

	type cliResult struct {
		ok, shed int
		fail     string
	}
	cliCh := make(chan cliResult, interactive)
	for c := 0; c < interactive; c++ {
		go func(id int) {
			var res cliResult
			defer func() { cliCh <- res }()
			for i := 0; i < reqsPerClient; i++ {
				var resp *http.Response
				var err error
				if (id+i)%2 == 0 {
					resp, err = http.Post(ts.URL+"/v1/estimate", "application/json",
						strings.NewReader(`{"phrase":"2 cups all-purpose flour"}`))
				} else {
					resp, err = http.Post(ts.URL+"/v1/recipe", "application/json",
						strings.NewReader(`{"ingredients":["1 cup whole milk"],"servings":2}`))
				}
				if err != nil {
					res.fail = err.Error()
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					res.ok++
				case http.StatusTooManyRequests:
					var eb ErrorBody
					if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code == "" {
						res.fail = fmt.Sprintf("malformed 429 body: %s", body)
						return
					}
					res.shed++
				default:
					res.fail = fmt.Sprintf("status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}(c)
	}

	okBulk, totalOK, totalShed := 0, 0, 0
	for i := 0; i < bulkStreams; i++ {
		res := <-bulkCh
		if res.fail != "" {
			t.Fatalf("bulk stream: %s", res.fail)
		}
		if res.status == http.StatusOK {
			okBulk++
			if res.lines != bulkLines || res.errs != 0 {
				t.Fatalf("admitted bulk stream returned %d lines (%d errors), want %d clean", res.lines, res.errs, bulkLines)
			}
		}
	}
	for i := 0; i < interactive; i++ {
		res := <-cliCh
		if res.fail != "" {
			t.Fatalf("interactive client: %s", res.fail)
		}
		totalOK += res.ok
		totalShed += res.shed
	}
	if okBulk == 0 {
		t.Fatal("no bulk stream was admitted")
	}
	if totalOK == 0 {
		t.Fatalf("interactive traffic fully starved: 0 OK, %d shed", totalShed)
	}

	// Quiesce: gauges must return to zero once the storm is over.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.reg.Snapshot()
		if snap.Batch.Active == 0 && s.reg.InFlight() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges did not quiesce: active=%d in_flight=%d", snap.Batch.Active, s.reg.InFlight())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchMetricsCounters pins the batch counter accounting on a known
// stream: 3 answered lines, 1 of them an error, at least one window.
func TestBatchMetricsCounters(t *testing.T) {
	s := newTestServer(t, nil)
	before := s.reg.Snapshot().Batch
	input := `{"phrase":"2 cups all-purpose flour"}` + "\n" +
		"not json\n" +
		`{"ingredients":["salt"],"servings":2}` + "\n"
	w := postBatch(t, s.Handler(), input)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	after := s.reg.Snapshot().Batch
	if got := after.Lines - before.Lines; got != 3 {
		t.Errorf("batch lines counter advanced by %d, want 3", got)
	}
	if got := after.LineErrors - before.LineErrors; got != 1 {
		t.Errorf("batch line-error counter advanced by %d, want 1", got)
	}
	if after.Windows <= before.Windows {
		t.Error("batch window counter did not advance")
	}
	if after.Active != 0 {
		t.Errorf("active streams gauge %d after stream end, want 0", after.Active)
	}
}

// TestServeBatchHotZeroAllocs pins the warm-stream hot path: once the
// scratch arenas have grown and the memo cache is hot, a full
// read-decode-estimate-encode window cycle performs zero heap
// allocations. Mirrors TestServeEstimateHotZeroAllocs.
func TestServeBatchHotZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := newTestServer(t, func(c *Config) {
		c.BatchWindow = 64
		c.BatchWorkers = 1
	})
	var body bytes.Buffer
	for i := 0; i < 32; i++ {
		body.WriteString(`{"phrase":"2 cups all-purpose flour"}` + "\n")
		body.WriteString(`{"ingredients":["2 cups all-purpose flour","1 cup whole milk"],"servings":4,"method":"baked"}` + "\n")
	}

	bs := getBatchScratch()
	defer putBatchScratch(bs)
	rd := bytes.NewReader(nil)
	run := func() {
		rd.Reset(body.Bytes())
		// rc is nil: flushOK stays false and no drain watcher runs, so the
		// stream uses plain blocking reads and unflushed writes — the
		// recorder path.
		st := batchStream{s: s, bs: bs, body: rd, dst: io.Discard, ctx: context.Background()}
		st.run()
	}
	run() // warm: grow the arenas, populate the memo cache
	run()
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("warm batch stream allocated %v times per run, want 0", n)
	}
}

// windowLines records how many response lines each Write carried: the
// stream writes each window's rendered output in one call.
type windowLines []int

func (w *windowLines) Write(p []byte) (int, error) {
	*w = append(*w, bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// TestBatchWindowIsOneRead pins the bound that actually sizes a window:
// the complete lines one read delivers into the stream's batchReadBytes
// buffer. Lines longer than 1 KiB arrive from a reader that has the
// whole body ready, through a scratch fresh from the pool (4 KiB
// buffers); each window must hold what a 64 KiB read completes — fewer
// than BatchWindow lines — rather than what the scratch's own capacity
// would hold.
func TestBatchWindowIsOneRead(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.BatchWorkers = 1 })
	line := `{"phrase":"2 cups all-purpose flour` + strings.Repeat(" ", 1100) + `"}` + "\n"
	const lines = 300
	body := strings.Repeat(line, lines)

	// The model: a window starts with the last window's partial line, one
	// read tops the buffer up to batchReadBytes, and the window takes the
	// complete lines in it.
	var want []int
	tail, unread := 0, len(body)
	for unread > 0 {
		read := min(batchReadBytes-tail, unread)
		unread -= read
		held := tail + read
		want = append(want, held/len(line))
		tail = held % len(line)
	}
	if want[0] >= s.cfg.BatchWindow {
		t.Fatalf("model window of %d lines reaches BatchWindow %d: lines too short to test the read bound", want[0], s.cfg.BatchWindow)
	}

	bs := batchPool.New().(*batchScratch)
	if cap(bs.buf) >= batchReadBytes {
		t.Fatalf("fresh scratch buffer holds %d bytes; the test needs one smaller than a read", cap(bs.buf))
	}
	var got windowLines
	st := batchStream{s: s, bs: bs, body: strings.NewReader(body), dst: &got, ctx: context.Background()}
	st.run()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("lines per window %v, want %v", got, want)
	}
}

// TestPutBatchScratchClearsUsedSlots pins putBatchScratch's narrow
// clear. It clears only as far as this checkout's slices reached, so a
// checkout that ran a 64-line window and then a /v1/estimate — the
// second leaving only one slot of each slice in use — must still leave
// no slot up to capacity holding a reference once it is put back.
func TestPutBatchScratchClearsUsedSlots(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.BatchWorkers = 1 })
	var body strings.Builder
	for i := 0; i < 32; i++ {
		body.WriteString(`{"phrase":"2 cups all-purpose flour"}` + "\n")
		body.WriteString(`{"ingredients":["2 cups all-purpose flour","1 cup whole milk"],"servings":4}` + "\n")
	}
	bs := batchPool.New().(*batchScratch)
	var windows windowLines
	st := batchStream{s: s, bs: bs, body: strings.NewReader(body.String()), dst: &windows, ctx: context.Background()}
	st.run()
	if len(windows) != 1 || windows[0] != 64 {
		t.Fatalf("stream ran windows of %v lines, want one of 64", windows)
	}
	status, _ := s.answer(bs, context.Background(), strings.NewReader(`{"phrase":"1 cup whole milk"}`), estimateGrammar)
	if status != http.StatusOK {
		t.Fatalf("estimate status %d", status)
	}
	putBatchScratch(bs)

	for name, slots := range map[string]any{
		"items": bs.items, "inputs": bs.inputs, "outcomes": bs.outcomes,
		"arena": bs.arena, "ings": bs.ings,
	} {
		v := reflect.ValueOf(slots)
		v = v.Slice(0, v.Cap())
		if v.Len() < 64 {
			t.Errorf("%s holds %d slots, want the window's 64", name, v.Len())
		}
		for i := 0; i < v.Len(); i++ {
			if !v.Index(i).IsZero() {
				t.Errorf("%s[%d] still set after put: %+v", name, i, v.Index(i))
				break
			}
		}
	}
}
