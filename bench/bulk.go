package main

// The bulk client: one /v1/batch request per stream, written as a
// chunked NDJSON body and answered line by line while it is still being
// written. A stream keeps at most bulkDepth lines unanswered — four of
// the server's 64-line windows, enough that the server never waits for
// input — so the time from a line's send to its answer measures the
// pipeline rather than how much the kernel's socket buffers can hold,
// and a stream stops within a few windows of its deadline.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

const (
	bulkDepth = 256
	// drainTimeout bounds the wait for answers after a deadline.
	drainTimeout = 30 * time.Second
)

var (
	recipeAnswer   = []byte(`{"servings":`)
	estimateAnswer = []byte(`{"phrase":`)
	errorAnswer    = []byte(`{"error"`)
)

// sample is one request kept for verification after the run, with the
// answer the server gave it.
type sample struct {
	path string
	req  []byte
	resp []byte
}

// bulkRun is one stream's outcome.
type bulkRun struct {
	sent, recv int
	inWindow   int // lines answered before the deadline
	errLines   int // in-stream {"error"...} lines
	badLines   int // lines of any other unexpected shape, or a torn last line
	err        error
	lat        []float64 // ms from each line's send to its answer
	samples    []sample
}

// bulkConn is an open /v1/batch request whose body has not started.
type bulkConn struct {
	c  net.Conn
	bw *bufio.Writer
}

func openBulk(addr string) (*bulkConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	// The header stays buffered until the first lines go with it: the
	// server cancels a /v1/batch request whose body stalls past its
	// 250 ms drain poll, so the body must follow the header at once and
	// never pause (see README.md, "A server defect this benchmark avoids").
	bw := bufio.NewWriterSize(c, 64<<10)
	bw.WriteString("POST /v1/batch HTTP/1.1\r\nHost: nutribench\r\n" +
		"Content-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n")
	return &bulkConn{c: c, bw: bw}, nil
}

// drive sends s cyclically from now until end, salting each pass anew
// when salted, then ends the body and waits for the last answer. Every
// sampleEvery-th line is kept for verification.
func (b *bulkConn) drive(s *stream, salted bool, end time.Time) bulkRun {
	defer b.c.Close()
	var (
		run    bulkRun
		rd     bulkRun // the reader's half, merged after it returns
		sendAt [bulkDepth]time.Time
		sent   atomic.Int64 // lines whose send time is recorded
		recv   atomic.Int64
		wake   = make(chan struct{}, 1)
		done   = make(chan struct{})
	)
	if err := b.c.SetDeadline(end.Add(drainTimeout)); err != nil {
		run.err = err
		return run
	}
	go func() {
		defer close(done)
		rd = readBulk(b.c, end, &sendAt, &sent, &recv, wake)
	}()

	stop := make(chan struct{})
	timer := time.AfterFunc(time.Until(end), func() { close(stop) })
	defer timer.Stop()
	n := s.lines()
	seq := 0
	var werr error
send:
	for {
		select {
		case <-stop:
			break send
		case <-done: // the reader gave up; nothing more will be answered
			break send
		default:
		}
		room := bulkDepth - (seq - int(recv.Load()))
		if room <= 0 {
			select {
			case <-wake:
			case <-stop:
				break send
			case <-done:
				break send
			}
			continue
		}
		i := seq % n
		k := min(room, n-i)
		if salted {
			s.setPass(i, i+k, seq/n)
		}
		for j := seq; j < seq+k; j++ {
			if j%sampleEvery == 0 {
				line := s.buf[s.offs[i+j-seq]:s.offs[i+j-seq+1]]
				run.samples = append(run.samples, sample{path: "/v1/batch", req: bytes.Clone(line)})
			}
		}
		now := time.Now()
		for j := seq; j < seq+k; j++ {
			sendAt[j%bulkDepth] = now
		}
		sent.Store(int64(seq + k))
		if werr = writeChunk(b.bw, s.buf[s.offs[i]:s.offs[i+k]]); werr != nil {
			break
		}
		seq += k
	}
	if werr == nil {
		b.bw.WriteString("0\r\n\r\n")
		werr = b.bw.Flush()
	}
	<-done
	run.sent = seq
	run.recv, run.inWindow, run.errLines, run.badLines = rd.recv, rd.inWindow, rd.errLines, rd.badLines
	run.lat = rd.lat
	run.err = errors.Join(werr, rd.err)
	// Pair each kept request with its answer: both halves kept them in
	// sequence order, and lines never answered are counted as missing.
	run.samples = run.samples[:min(len(run.samples), len(rd.samples))]
	for i := range run.samples {
		run.samples[i].resp = rd.samples[i].resp
	}
	return run
}

func writeChunk(bw *bufio.Writer, p []byte) error {
	bw.WriteString(strconv.FormatInt(int64(len(p)), 16))
	bw.WriteString("\r\n")
	bw.Write(p)
	bw.WriteString("\r\n")
	return bw.Flush()
}

// readBulk reads the stream's answer: a 200 status, then one NDJSON
// line per input line, in order.
func readBulk(c net.Conn, end time.Time, sendAt *[bulkDepth]time.Time, sent, recv *atomic.Int64, wake chan<- struct{}) bulkRun {
	var run bulkRun
	resp, err := http.ReadResponse(bufio.NewReaderSize(c, 64<<10), nil)
	if err != nil {
		run.err = fmt.Errorf("reading the /v1/batch status: %w", err)
		return run
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		run.err = fmt.Errorf("/v1/batch status %d", resp.StatusCode)
		return run
	}
	lr := bufio.NewReaderSize(resp.Body, 1<<20)
	for {
		line, err := lr.ReadSlice('\n')
		if n := len(line); n > 0 && line[n-1] == '\n' {
			seq := run.recv
			now := time.Now()
			if int64(seq) >= sent.Load() {
				run.err = fmt.Errorf("answer line %d arrived before its request was sent", seq+1)
				return run
			}
			run.lat = append(run.lat, float64(now.Sub(sendAt[seq%bulkDepth]))/1e6)
			if !now.After(end) {
				run.inWindow++
			}
			switch {
			case bytes.HasPrefix(line, recipeAnswer) && bytes.HasSuffix(line, []byte("}\n")):
			case bytes.HasPrefix(line, errorAnswer):
				run.errLines++
			default:
				run.badLines++
			}
			if seq%sampleEvery == 0 {
				run.samples = append(run.samples, sample{resp: bytes.Clone(line)})
			}
			run.recv++
			recv.Store(int64(run.recv))
			select {
			case wake <- struct{}{}:
			default:
			}
		} else if n > 0 && err == io.EOF {
			run.badLines++ // torn last line
		}
		switch {
		case err == nil:
		case err == io.EOF:
			return run
		case errors.Is(err, bufio.ErrBufferFull):
			run.err = errors.New("answer line longer than 1 MiB")
			return run
		default:
			run.err = err
			return run
		}
	}
}
