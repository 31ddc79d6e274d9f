package main

// The interactive client: an open loop of pipelined HTTP/1.1 requests.
// Request g of a phase falls due g/rate after the phase starts and
// travels on connection g mod n. Each connection has a writer that sends
// requests as they fall due, never waiting for answers, and a reader
// that takes the answers in order. The offered load therefore does not
// depend on how fast the server answers, and a stall counts against
// every request that fell due during it, because latency runs from the
// due time, not from the send.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// schedule places a phase's requests in time and on connections.
type schedule struct {
	rate  float64 // requests per second over all connections
	conns int
	dur   time.Duration
}

// due is when request g falls due, from the phase start.
func (s schedule) due(g int) time.Duration {
	return time.Duration(float64(g) / s.rate * float64(time.Second))
}

// total is the number of requests that fall due within the phase.
func (s schedule) total() int {
	return int(math.Ceil(s.rate*s.dur.Seconds() - 1e-9))
}

// take accounts for the requests one connection sends at now: from its
// next request g, every g, g+conns, ... already due. It appends each
// one's lateness — now minus its due time, in ms — to late and returns
// the connection's next request.
func (s schedule) take(g int, now time.Duration, late []float64) (int, []float64) {
	for n := s.total(); g < n && s.due(g) <= now; g += s.conns {
		late = append(late, float64(now-s.due(g))/1e6)
	}
	return g, late
}

// sleepUntil blocks until t on the calling goroutine's thread. Go's
// timers wake about a millisecond late on small VMs (a 500 µs
// time.Sleep measured 0.57–1.3 ms), which would count as server latency
// in an open loop; nanosleep on a thread whose timer slack is cut to
// 1 ns (see precise) wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // EINTR returns early; callers re-check the clock
}

// precise locks the calling goroutine to its thread and sets the
// thread's timer slack to 1 ns. The goroutine must exit without
// unlocking, so the runtime retires the thread instead of reusing it.
func precise() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: default slack only costs precision
}

// openLoop is a set of connections replaying a request pool. Phases run
// one after another on the same connections; each continues the pool
// where the previous one stopped, so a run's requests follow one
// sequence.
type openLoop struct {
	pool  *pool
	conns []*olConn
	next  int // requests sent by earlier phases
}

type olConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialLoop(addr string, p *pool, n int) (*openLoop, error) {
	o := &openLoop{pool: p}
	for range n {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			o.close()
			return nil, err
		}
		o.conns = append(o.conns, &olConn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)})
	}
	return o, nil
}

func (o *openLoop) close() {
	for _, c := range o.conns {
		c.c.Close()
	}
}

// phase is the outcome of one stretch of the loop.
type phase struct {
	rate     float64 // offered req/s
	dur      time.Duration
	sent, ok int
	inWindow int // answered before the phase's end
	failed   int // non-200 answers, answers of the wrong shape, and requests never answered
	lat      []float64
	recipe   []float64 // the /v1/recipe subset of lat
	late     []float64 // ms from due time to send
	samples  []sample
	err      error
}

// passes reports whether the phase met the interactive SLO: p99 within
// sloP99, completions within the window at least 98 % of the offered
// rate, and nothing failed.
func (p *phase) passes() bool {
	s := summarise(p.lat)
	return p.failed == 0 && p.err == nil && s.n > 0 &&
		s.p99 <= float64(sloP99)/1e6 &&
		float64(p.inWindow) >= 0.98*p.rate*p.dur.Seconds()
}

// run offers rate requests per second for dur, then waits for every
// answer.
func (o *openLoop) run(rate float64, dur time.Duration) phase {
	s := schedule{rate: rate, conns: len(o.conns), dur: dur}
	start := time.Now()
	parts := make([]phase, len(o.conns))
	var wg sync.WaitGroup
	for c := range o.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = o.drive(c, s, start)
		}(c)
	}
	wg.Wait()
	ph := phase{rate: s.rate, dur: s.dur}
	most := 0
	for _, p := range parts {
		ph.sent += p.sent
		ph.ok += p.ok
		ph.inWindow += p.inWindow
		ph.failed += p.failed
		ph.lat = append(ph.lat, p.lat...)
		ph.recipe = append(ph.recipe, p.recipe...)
		ph.late = append(ph.late, p.late...)
		ph.samples = append(ph.samples, p.samples...)
		ph.err = errors.Join(ph.err, p.err)
		most = max(most, p.sent)
	}
	o.next += most * len(o.conns)
	return ph
}

// drive runs connection c's share of one phase: a writer goroutine
// sending its requests c, c+conns, c+2·conns, ... on schedule, and the
// reader here.
func (o *openLoop) drive(c int, s schedule, start time.Time) phase {
	conn := o.conns[c]
	if err := conn.c.SetDeadline(start.Add(s.dur + drainTimeout)); err != nil {
		return phase{err: err}
	}
	var (
		sent atomic.Int64
		done atomic.Bool
		wake = make(chan struct{}, 1) // writer → reader: more sent
		w    phase                    // the writer's half: lateness and its error
		wg   sync.WaitGroup
	)
	notify := func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	write := func(from, to int) error {
		for k := from; k < to; k++ {
			conn.bw.Write(o.pool.request((o.next + c + k*s.conns) % o.pool.size()))
		}
		if err := conn.bw.Flush(); err != nil {
			return err
		}
		sent.Store(int64(to))
		notify()
		return nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer notify()
		defer done.Store(true)
		precise()
		for g := c; g < s.total() && w.err == nil; {
			if d := s.due(g); time.Since(start) < d {
				sleepUntil(start.Add(d))
			}
			k := (g - c) / s.conns
			g, w.late = s.take(g, time.Since(start), w.late)
			w.err = write(k, (g-c)/s.conns)
		}
	}()

	var (
		r    phase
		body []byte
	)
	for k := 0; ; k++ {
		for int64(k) >= sent.Load() && !(done.Load() && int64(k) >= sent.Load()) {
			<-wake
		}
		if int64(k) >= sent.Load() {
			break
		}
		g := c + k*s.conns
		i := (o.next + g) % o.pool.size()
		status, b, err := readAnswer(conn.br, body[:0])
		now := time.Since(start)
		body = b
		if err != nil {
			r.err = fmt.Errorf("reading answer %d: %w", k+1, err)
			break
		}
		want := estimateAnswer
		if o.pool.kinds[i] == kindRecipe {
			want = recipeAnswer
		}
		if status != http.StatusOK || !bytes.HasPrefix(b, want) || !bytes.HasSuffix(b, []byte("}\n")) {
			r.failed++
		} else {
			r.ok++
			ms := float64(now-s.due(g)) / 1e6
			r.lat = append(r.lat, ms)
			if o.pool.kinds[i] == kindRecipe {
				r.recipe = append(r.recipe, ms)
			}
		}
		if now <= s.dur {
			r.inWindow++
		}
		if (o.next+g)%sampleEvery == 0 {
			r.samples = append(r.samples, sample{
				path: kindPath[o.pool.kinds[i]],
				req:  o.pool.requestBody(i),
				resp: bytes.Clone(b),
			})
		}
	}
	if r.err != nil {
		conn.c.Close() // unblocks a writer stuck on a full socket
	}
	wg.Wait()
	r.sent = int(sent.Load())
	r.late = w.late
	r.failed = r.sent - r.ok // wrong answers and requests never answered
	r.err = errors.Join(r.err, w.err)
	return r
}

// readAnswer reads one HTTP/1.1 response, appending its body to body. It
// understands what net/http servers send — a Content-Length body, or a
// chunked one for bodies past the server's buffer — and allocates
// nothing once body has grown, so a busy loop does not make the client
// collect garbage while it measures.
func readAnswer(br *bufio.Reader, body []byte) (status int, _ []byte, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, body, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, body, fmt.Errorf("bad status line %q", line)
	}
	for _, c := range line[9:12] {
		status = status*10 + int(c-'0')
	}
	length, chunked := -1, false
	for {
		h, err := br.ReadSlice('\n')
		if err != nil {
			return status, body, err
		}
		if len(h) <= 2 {
			break // the blank line ending the header
		}
		name, value, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			continue
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			length = 0
			for _, c := range value {
				length = length*10 + int(c-'0')
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	if !chunked {
		if length < 0 {
			return status, body, errors.New("answer without Content-Length")
		}
		body, err = readN(br, body, length)
		return status, body, err
	}
	for {
		h, err := br.ReadSlice('\n')
		if err != nil {
			return status, body, err
		}
		size := 0
		for _, c := range bytes.TrimSpace(h) {
			switch {
			case c >= '0' && c <= '9':
				size = size<<4 | int(c-'0')
			case c >= 'a' && c <= 'f':
				size = size<<4 | int(c-'a'+10)
			case c >= 'A' && c <= 'F':
				size = size<<4 | int(c-'A'+10)
			default:
				return status, body, fmt.Errorf("bad chunk size %q", h)
			}
		}
		if body, err = readN(br, body, size); err != nil {
			return status, body, err
		}
		if _, err := br.Discard(2); err != nil { // the chunk's CRLF
			return status, body, err
		}
		if size == 0 {
			return status, body, nil
		}
	}
}

// readN appends the next n bytes of br to body.
func readN(br *bufio.Reader, body []byte, n int) ([]byte, error) {
	start := len(body)
	body = slices.Grow(body, n)[:start+n]
	_, err := io.ReadFull(br, body[start:])
	return body, err
}
