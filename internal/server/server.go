// Package server is the nutriserve HTTP serving layer: a stdlib-only
// JSON API over the core estimation pipeline, shaped for production
// traffic rather than demos. Every request passes through the same
// middleware stack — body-size limit, admission control, per-request
// deadline, metrics, structured access log — and every non-200 response
// carries a machine-readable error body.
//
// Admission control is a bounded semaphore over the two estimation
// routes: when MaxInFlight requests are already in the pipeline, new
// work is shed immediately with 429 + Retry-After instead of queuing
// unboundedly (queuing under overload only converts load into latency
// and memory; shedding keeps the served requests fast). /v1/healthz and
// /v1/stats bypass admission so probes and scrapes stay responsive
// exactly when the pipeline is saturated — the moment operators need
// them.
//
// Shutdown is graceful: Serve stops accepting connections on context
// cancellation (SIGTERM in cmd/nutriserve), drains in-flight requests
// up to the drain timeout, then exits. See DESIGN.md §9.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"nutriprofile/internal/core"
	"nutriprofile/internal/metrics"
)

// Config configures a Server. The zero value of every field selects a
// production-safe default; only Estimator is required.
type Config struct {
	// Estimator is the shared pipeline. Required.
	Estimator *core.Estimator
	// MaxInFlight bounds concurrently admitted estimation requests
	// (/v1/estimate + /v1/recipe combined). Excess load is shed with
	// 429. Default 64.
	MaxInFlight int
	// RequestTimeout is the per-request deadline; it propagates through
	// the request context into core, which checks it between a recipe's
	// lines, so an expired recipe stops consuming pipeline capacity.
	// Default 5s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; larger bodies get 413.
	// Default 1 MiB.
	MaxBodyBytes int64
	// RetryAfter is the hint sent with 429 responses. Default 1s.
	RetryAfter time.Duration
	// EnableReload exposes POST /admin/reload (loopback-only hot swap of
	// the serving database from a baked image). Off by default: a
	// process whose DB is built into the binary (nutriserve -db seed)
	// has nothing to reload.
	EnableReload bool
	// BatchWindow caps the NDJSON lines a /v1/batch stream decodes,
	// estimates and flushes per pipeline pass. A window holds the
	// complete lines one read delivers into the stream's 64 KiB read
	// buffer, so lines longer than 1 KiB fill fewer than 64. Smaller
	// windows yield to interactive traffic more often; larger windows
	// amortize the per-window dispatch. Default 64.
	BatchWindow int
	// BatchWorkers bounds the estimator workers one bulk window runs on
	// (an interactive recipe always runs on its request goroutine): bulk
	// is throughput traffic and must leave cores for latency traffic.
	// Default GOMAXPROCS/2, minimum 1.
	BatchWorkers int
	// MaxBulkStreams bounds concurrently admitted /v1/batch streams.
	// Each stream also holds one MaxInFlight admission slot for its
	// whole life, so bulk can never occupy more than MaxBulkStreams
	// slots of the interactive budget. Default MaxInFlight/4, minimum 1.
	MaxBulkStreams int
	// AccessLog receives one structured line per request; nil disables
	// access logging.
	AccessLog *log.Logger
}

func (c *Config) fill() error {
	if c.Estimator == nil {
		return errors.New("server: Config.Estimator is required")
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 64
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0) / 2
		if c.BatchWorkers < 1 {
			c.BatchWorkers = 1
		}
	}
	if c.MaxBulkStreams <= 0 {
		c.MaxBulkStreams = c.MaxInFlight / 4
		if c.MaxBulkStreams < 1 {
			c.MaxBulkStreams = 1
		}
	}
	return nil
}

// Server serves the nutriserve API. Construct with New; a Server is
// safe for concurrent use and its Handler may back any number of
// listeners.
type Server struct {
	cfg Config
	est *core.Estimator
	reg *metrics.Registry
	// sem is the admission semaphore: a request holds one slot for its
	// full pipeline residence. Acquisition never blocks — a full
	// semaphore sheds the request.
	sem chan struct{}
	// bulkSem bounds concurrently open /v1/batch streams; a bulk stream
	// holds one bulkSem slot AND one sem slot, so interactive traffic
	// always keeps MaxInFlight - MaxBulkStreams admission slots to
	// itself (the starvation bound DESIGN.md §14 documents).
	bulkSem chan struct{}
	// drainCh closes when graceful shutdown begins. Bulk streams poll it
	// between windows (and while blocked on slow readers) so they can
	// end with an in-stream trailer instead of hanging the drain.
	drainCh   chan struct{}
	drainOnce sync.Once
	// runtime caches the stop-the-world MemStats read behind a 1 s TTL
	// so scraping /v1/stats hard cannot become a GC-pause generator.
	runtime *metrics.RuntimeSampler

	// testHookAdmitted, when set, runs after a request is admitted and
	// before the pipeline runs — test seam for holding slots open to
	// force deterministic sheds.
	testHookAdmitted func(route string)
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Server{
		cfg:     cfg,
		est:     cfg.Estimator,
		reg:     metrics.NewRegistry(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		bulkSem: make(chan struct{}, cfg.MaxBulkStreams),
		drainCh: make(chan struct{}),
		runtime: metrics.NewRuntimeSampler(time.Second),
	}, nil
}

// startDrain flips the server into draining state (idempotent). Serve
// calls it when shutdown begins; tests may call it directly.
func (s *Server) startDrain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Registry exposes the metrics registry backing /v1/stats.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the route mux with the full middleware stack applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/estimate", s.instrument("/v1/estimate", true, s.handleItem(estimateGrammar)))
	mux.Handle("POST /v1/recipe", s.instrument("/v1/recipe", true, s.handleItem(recipeGrammar)))
	mux.Handle("POST /v1/batch", s.instrumentBulk("/v1/batch", s.handleBatch))
	mux.Handle("GET /v1/healthz", s.instrument("/v1/healthz", false, s.handleHealthz))
	mux.Handle("GET /v1/stats", s.instrument("/v1/stats", false, s.handleStats))
	mux.Handle("GET /metrics", s.instrument("/metrics", false, s.handleMetrics))
	if s.cfg.EnableReload {
		// Unadmitted: a reload must go through exactly when the pipeline
		// is saturated, and it holds no estimation capacity.
		mux.Handle("POST /admin/reload", s.instrument("/admin/reload", false, s.handleReload))
	}
	return mux
}

// statusRecorder captures the status code and body size for metrics and
// access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach through to the underlying
// writer — the bulk stream uses it for Flush and SetReadDeadline.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// observe finishes one request's middleware accounting: the latency
// observation and the structured access-log line. Deferred by both
// instrument and instrumentBulk, it is also the one place a handler
// panic is seen: the request is accounted as the 500 it is — not as the
// 200 an unwritten status defaults to — and the panic then continues,
// so net/http drops the connection as it would without the middleware.
func (s *Server) observe(route string, rt *metrics.Route, r *http.Request, rec *statusRecorder, start time.Time) {
	p := recover()
	s.reg.DecInFlight()
	d := time.Since(start)
	switch {
	case p != nil:
		rec.status = http.StatusInternalServerError
	case rec.status == 0:
		rec.status = http.StatusOK
	}
	rt.Observe(rec.status, d)
	if lg := s.cfg.AccessLog; lg != nil {
		lg.Printf("method=%s route=%s status=%d bytes=%d dur_ms=%.3f remote=%s",
			r.Method, route, rec.status, rec.bytes, float64(d)/float64(time.Millisecond), r.RemoteAddr)
	}
	if p != nil {
		panic(p)
	}
}

// shed rejects a request at admission with 429 + Retry-After.
func (s *Server) shed(w http.ResponseWriter, code, msg string) {
	s.reg.AddShed()
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeError(w, http.StatusTooManyRequests, code, msg)
}

// instrument wraps a route handler with the middleware stack: metrics +
// access log always; body limit, admission control and the per-request
// deadline only on estimation routes (admitted == true).
func (s *Server) instrument(route string, admitted bool, h http.HandlerFunc) http.Handler {
	rt := s.reg.Route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		s.reg.IncInFlight()
		defer s.observe(route, rt, r, rec, start)

		if !admitted {
			h(rec, r)
			return
		}

		// Shed before reading the body: a rejected request should cost
		// nothing but the header parse.
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.shed(rec, "overloaded",
				fmt.Sprintf("server at capacity (%d requests in flight); retry later", s.cfg.MaxInFlight))
			return
		}
		if hook := s.testHookAdmitted; hook != nil {
			hook(route)
		}

		r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxBodyBytes)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(rec, r.WithContext(ctx))
	})
}

// instrumentBulk is the middleware for the streaming bulk route. A bulk
// stream acquires one bulkSem slot (bounding open streams) and one
// admission slot (so the interactive semaphore sees bulk load), both
// non-blocking — at capacity the stream is shed exactly like an
// interactive request. What it deliberately does NOT get: no
// MaxBytesReader (the body is unbounded by design; MaxBodyBytes caps
// each line instead) and no per-request deadline (a 118k-line stream
// cannot fit one; windowing, drain polling and client disconnect bound
// its life).
func (s *Server) instrumentBulk(route string, h http.HandlerFunc) http.Handler {
	rt := s.reg.Route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		s.reg.IncInFlight()
		defer s.observe(route, rt, r, rec, start)

		select {
		case s.bulkSem <- struct{}{}:
			defer func() { <-s.bulkSem }()
		default:
			s.shed(rec, "bulk_capacity",
				fmt.Sprintf("server at bulk capacity (%d streams open); retry later", s.cfg.MaxBulkStreams))
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.shed(rec, "overloaded",
				fmt.Sprintf("server at capacity (%d requests in flight); retry later", s.cfg.MaxInFlight))
			return
		}
		if hook := s.testHookAdmitted; hook != nil {
			hook(route)
		}
		s.reg.IncBulkActive()
		defer s.reg.DecBulkActive()
		h(rec, r)
	})
}

// Serve runs the API on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get
// up to drain to complete, and stragglers are cut off. Serve returns
// only once every connection has closed, so no handler outlives it.
// The returned error is nil on a clean drain, context.DeadlineExceeded
// when the drain timed out, or the listener failure that stopped the
// server.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	// Shutdown (below) stops the listener but does not cancel in-flight
	// request contexts, so admitted work finishes within the drain
	// window — the ordering DESIGN.md §9 documents. Shutdown can close
	// a keep-alive connection it sees as idle just after that
	// connection read its next request, and that request's handler then
	// runs after Shutdown returns; conns counts connections until they
	// close, which is after their last handler returned.
	var conns sync.WaitGroup
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ConnState: func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				conns.Add(1)
			case http.StateClosed, http.StateHijacked:
				conns.Done()
			}
		},
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	// Signal bulk streams before Shutdown starts waiting on handlers:
	// they finish their current window, write a draining trailer line,
	// and return, so a bulk stream never pins the drain window open.
	s.startDrain()
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := hs.Shutdown(dctx)
	// Serve always returns ErrServerClosed after Shutdown; swallow it.
	if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	// hs.Serve counts every connection it accepted (StateNew) before it
	// returns, so no Add races this Wait.
	closed := make(chan struct{})
	go func() {
		conns.Wait()
		close(closed)
	}()
	select {
	case <-closed:
	case <-dctx.Done():
		if err == nil {
			err = dctx.Err()
		}
	}
	return err
}

// ListenAndServe is Serve over a fresh TCP listener on addr.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, drain)
}
