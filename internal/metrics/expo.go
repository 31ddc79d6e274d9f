package metrics

// Prometheus text exposition (format version 0.0.4) over the registry's
// snapshot — the same numbers /v1/stats serves as JSON, rendered the way
// every production scrape stack already understands. The exposition is
// computed from one Snapshot so a scrape is internally consistent to the
// same degree the JSON surface is, and the output is deterministic
// (routes sorted) so it can be golden-tested and diffed across scrapes.
//
// Unit conventions follow Prometheus practice: durations in seconds
// (the registry's millisecond buckets are converted at render time),
// cumulative counters suffixed _total, histograms exposed as cumulative
// _bucket series with an le label and a terminal le="+Inf" equal to
// _count.

import (
	"io"
	"sort"
	"strconv"
)

const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// PrometheusContentType is the Content-Type a /metrics handler should
// send with WritePrometheus output.
func PrometheusContentType() string { return promContentType }

// WritePrometheus renders the registry in Prometheus text format. One
// scrape takes one snapshot; errors are the writer's.
func (g *Registry) WritePrometheus(w io.Writer) error {
	return writePrometheus(w, g.Snapshot())
}

// PromWriter accumulates one exposition and writes it on Flush, keeping
// the first write error so the render code stays linear. The registry's
// families render through it, and so do the families a /metrics handler
// snapshots at scrape time from outside the registry.
type PromWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewPromWriter returns a PromWriter that flushes to w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, buf: make([]byte, 0, 4096)}
}

// Flush writes what has been rendered so far and returns the first
// write error.
func (p *PromWriter) Flush() error {
	if p.err == nil && len(p.buf) > 0 {
		_, p.err = p.w.Write(p.buf)
		p.buf = p.buf[:0]
	}
	return p.err
}

func (p *PromWriter) str(s string)  { p.buf = append(p.buf, s...) }
func (p *PromWriter) int(v int64)   { p.buf = strconv.AppendInt(p.buf, v, 10) }
func (p *PromWriter) uint(v uint64) { p.buf = strconv.AppendUint(p.buf, v, 10) }
func (p *PromWriter) float(v float64) {
	p.buf = strconv.AppendFloat(p.buf, v, 'g', -1, 64)
}

// Header emits the HELP and TYPE lines for one metric family.
func (p *PromWriter) Header(name, help, typ string) {
	p.str("# HELP ")
	p.str(name)
	p.str(" ")
	p.str(help)
	p.str("\n# TYPE ")
	p.str(name)
	p.str(" ")
	p.str(typ)
	p.str("\n")
}

// label appends one escaped label pair; Prometheus label values escape
// backslash, double quote and newline.
func (p *PromWriter) label(first bool, key, val string) {
	if !first {
		p.buf = append(p.buf, ',')
	}
	p.str(key)
	p.str(`="`)
	for i := 0; i < len(val); i++ {
		switch c := val[i]; c {
		case '\\':
			p.str(`\\`)
		case '"':
			p.str(`\"`)
		case '\n':
			p.str(`\n`)
		default:
			p.buf = append(p.buf, c)
		}
	}
	p.buf = append(p.buf, '"')
}

// Sample emits one sample line in the shortest 'g' float form: name
// value, or name{key="val"} value when key is not empty.
func (p *PromWriter) Sample(name, key, val string, v float64) {
	p.str(name)
	if key != "" {
		p.str("{")
		p.label(true, key, val)
		p.str("}")
	}
	p.str(" ")
	p.float(v)
	p.str("\n")
}

func writePrometheus(w io.Writer, s Snapshot) error {
	p := NewPromWriter(w)

	routes := make([]string, 0, len(s.Routes))
	for name := range s.Routes {
		routes = append(routes, name)
	}
	sort.Strings(routes)

	p.Header("nutriserve_http_requests_total", "Requests received, by route.", "counter")
	for _, rt := range routes {
		p.str("nutriserve_http_requests_total{")
		p.label(true, "route", rt)
		p.str("} ")
		p.uint(s.Routes[rt].Requests)
		p.str("\n")
	}

	p.Header("nutriserve_http_responses_total", "Responses sent, by route and status class.", "counter")
	for _, rt := range routes {
		classes := make([]string, 0, len(s.Routes[rt].ByClass))
		for c := range s.Routes[rt].ByClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			p.str("nutriserve_http_responses_total{")
			p.label(true, "route", rt)
			p.label(false, "class", c)
			p.str("} ")
			p.uint(s.Routes[rt].ByClass[c])
			p.str("\n")
		}
	}

	p.Header("nutriserve_http_request_duration_seconds", "Request latency, by route.", "histogram")
	for _, rt := range routes {
		lat := s.Routes[rt].Latency
		var cum uint64
		for _, b := range lat.Buckets {
			cum += b.Count
			p.str("nutriserve_http_request_duration_seconds_bucket{")
			p.label(true, "route", rt)
			p.str(`,le="`)
			p.float(b.UpperMs / 1000)
			p.str(`"} `)
			p.uint(cum)
			p.str("\n")
		}
		p.str("nutriserve_http_request_duration_seconds_bucket{")
		p.label(true, "route", rt)
		p.label(false, "le", "+Inf")
		p.str("} ")
		p.uint(lat.Count)
		p.str("\n")
		p.str("nutriserve_http_request_duration_seconds_sum{")
		p.label(true, "route", rt)
		p.str("} ")
		p.float(lat.SumMs / 1000)
		p.str("\n")
		p.str("nutriserve_http_request_duration_seconds_count{")
		p.label(true, "route", rt)
		p.str("} ")
		p.uint(lat.Count)
		p.str("\n")
	}

	p.Header("nutriserve_http_in_flight", "Requests currently being served.", "gauge")
	p.str("nutriserve_http_in_flight ")
	p.int(s.InFlight)
	p.str("\n")

	p.Header("nutriserve_http_shed_total", "Requests rejected by admission control.", "counter")
	p.str("nutriserve_http_shed_total ")
	p.uint(s.Shed)
	p.str("\n")

	p.Header("nutriserve_batch_lines_total", "NDJSON lines answered on bulk streams.", "counter")
	p.str("nutriserve_batch_lines_total ")
	p.uint(s.Batch.Lines)
	p.str("\n")

	p.Header("nutriserve_batch_line_errors_total", "Per-line errors reported in-stream on bulk streams.", "counter")
	p.str("nutriserve_batch_line_errors_total ")
	p.uint(s.Batch.LineErrors)
	p.str("\n")

	p.Header("nutriserve_batch_windows_total", "Estimator windows processed by bulk streams.", "counter")
	p.str("nutriserve_batch_windows_total ")
	p.uint(s.Batch.Windows)
	p.str("\n")

	p.Header("nutriserve_batch_streams_active", "Bulk streams currently held open.", "gauge")
	p.str("nutriserve_batch_streams_active ")
	p.int(s.Batch.Active)
	p.str("\n")

	return p.Flush()
}
