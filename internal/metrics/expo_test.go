package metrics

// Exposition-format conformance for WritePrometheus, checked with a
// minimal text-format (0.0.4) parser rather than string matching: every
// sample must belong to a declared family, HELP/TYPE must precede the
// samples, histogram buckets must be cumulative and monotone with a
// terminal le="+Inf" equal to _count, and every rendered value must
// agree with the Snapshot the exposition claims to render.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promFamily struct {
	help    string
	typ     string
	samples []promSample
}

// parseExposition is a strict parser for the subset of the text format
// the registry emits. It fails the test on any malformed line, on
// samples appearing before their family's HELP/TYPE header, and on a
// TYPE without a preceding HELP.
func parseExposition(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := make(map[string]*promFamily)
	var lastHelp string // family name of the pending HELP line
	var current string  // family samples are currently allowed for
	for ln, line := range strings.Split(text, "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d (%q): %s", ln+1, line, fmt.Sprintf(format, args...))
		}
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" || help == "" {
				fail("malformed HELP")
			}
			if _, dup := fams[name]; dup {
				fail("duplicate HELP for %s", name)
			}
			fams[name] = &promFamily{help: help}
			lastHelp = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				fail("malformed TYPE")
			}
			if name != lastHelp {
				fail("TYPE for %s not immediately preceded by its HELP", name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				fail("unknown type %q", typ)
			}
			fams[name].typ = typ
			current = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			fail("unexpected comment")
		}
		s := parsePromSample(t, ln+1, line)
		fam := fams[current]
		if fam == nil {
			fail("sample before any family header")
		}
		base := s.name
		if fam.typ == "histogram" {
			base = strings.TrimSuffix(base, "_bucket")
			base = strings.TrimSuffix(base, "_sum")
			base = strings.TrimSuffix(base, "_count")
		}
		if base != current {
			fail("sample %s outside its family block (current %s)", s.name, current)
		}
		fam.samples = append(fam.samples, s)
	}
	return fams
}

func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("line %d (%q): %s", ln, line, fmt.Sprintf(format, args...))
	}
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		rest = rest[i+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				fail("malformed label pair")
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			i := 0
			for ; i < len(rest); i++ {
				if rest[i] == '\\' {
					i++
					if i >= len(rest) {
						fail("dangling escape")
					}
					switch rest[i] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						fail("invalid escape \\%c", rest[i])
					}
					continue
				}
				if rest[i] == '"' {
					break
				}
				val.WriteByte(rest[i])
			}
			if i >= len(rest) {
				fail("unterminated label value")
			}
			if _, dup := s.labels[key]; dup {
				fail("duplicate label %s", key)
			}
			s.labels[key] = val.String()
			rest = rest[i+1:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "} ") {
				rest = rest[2:]
				break
			}
			fail("malformed label list tail %q", rest)
		}
	} else {
		name, v, ok := strings.Cut(rest, " ")
		if !ok {
			fail("sample without value")
		}
		s.name, rest = name, v
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		fail("bad value: %v", err)
	}
	s.value = v
	return s
}

// sampleValue finds the unique sample with the given name and labels.
func sampleValue(t *testing.T, fams map[string]*promFamily, fam, name string, labels map[string]string) float64 {
	t.Helper()
	f := fams[fam]
	if f == nil {
		t.Fatalf("family %s not exposed", fam)
	}
outer:
	for _, s := range f.samples {
		if s.name != name || len(s.labels) != len(labels) {
			continue
		}
		for k, v := range labels {
			if s.labels[k] != v {
				continue outer
			}
		}
		return s.value
	}
	t.Fatalf("no sample %s%v in family %s", name, labels, fam)
	return 0
}

// testRegistry builds a registry with a known mix: two routes (one with
// an awkward name that needs label escaping), latencies spread across
// buckets including one overflow, shed and batch traffic, and non-zero
// gauges.
func testRegistry() *Registry {
	g := NewRegistry()
	est := g.Route("/v1/estimate")
	est.Observe(200, 300*time.Microsecond)
	est.Observe(400, 2*time.Millisecond)
	est.Observe(200, 2*time.Second) // beyond the last bucket: overflow
	g.Route("esc\"aped\\ro\nute").Observe(200, time.Millisecond)
	g.IncInFlight()
	g.IncInFlight()
	g.DecInFlight()
	g.AddShed()
	g.AddBatchLines(7)
	g.AddBatchLineErrors(2)
	g.AddBatchWindow()
	g.IncBulkActive()
	return g
}

func TestPrometheusExposition(t *testing.T) {
	g := testRegistry()
	snap := g.Snapshot()

	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams := parseExposition(t, buf.String())

	wantTypes := map[string]string{
		"nutriserve_http_requests_total":           "counter",
		"nutriserve_http_responses_total":          "counter",
		"nutriserve_http_request_duration_seconds": "histogram",
		"nutriserve_http_in_flight":                "gauge",
		"nutriserve_http_shed_total":               "counter",
		"nutriserve_batch_lines_total":             "counter",
		"nutriserve_batch_line_errors_total":       "counter",
		"nutriserve_batch_windows_total":           "counter",
		"nutriserve_batch_streams_active":          "gauge",
	}
	for name, typ := range wantTypes {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing from exposition", name)
		}
		if f.typ != typ {
			t.Errorf("%s type %q, want %q", name, f.typ, typ)
		}
		if f.help == "" {
			t.Errorf("%s has no HELP text", name)
		}
	}
	if len(fams) != len(wantTypes) {
		t.Errorf("exposition has %d families, want %d", len(fams), len(wantTypes))
	}

	// Scalar families against the snapshot.
	none := map[string]string{}
	if v := sampleValue(t, fams, "nutriserve_http_in_flight", "nutriserve_http_in_flight", none); v != float64(snap.InFlight) {
		t.Errorf("in_flight %v, want %d", v, snap.InFlight)
	}
	if v := sampleValue(t, fams, "nutriserve_http_shed_total", "nutriserve_http_shed_total", none); v != float64(snap.Shed) {
		t.Errorf("shed %v, want %d", v, snap.Shed)
	}
	if v := sampleValue(t, fams, "nutriserve_batch_lines_total", "nutriserve_batch_lines_total", none); v != float64(snap.Batch.Lines) {
		t.Errorf("batch lines %v, want %d", v, snap.Batch.Lines)
	}
	if v := sampleValue(t, fams, "nutriserve_batch_line_errors_total", "nutriserve_batch_line_errors_total", none); v != float64(snap.Batch.LineErrors) {
		t.Errorf("batch line errors %v, want %d", v, snap.Batch.LineErrors)
	}
	if v := sampleValue(t, fams, "nutriserve_batch_windows_total", "nutriserve_batch_windows_total", none); v != float64(snap.Batch.Windows) {
		t.Errorf("batch windows %v, want %d", v, snap.Batch.Windows)
	}
	if v := sampleValue(t, fams, "nutriserve_batch_streams_active", "nutriserve_batch_streams_active", none); v != float64(snap.Batch.Active) {
		t.Errorf("batch active %v, want %d", v, snap.Batch.Active)
	}

	// Per-route counters — including the route whose name exercises all
	// three label escapes (backslash, quote, newline).
	for route, rs := range snap.Routes {
		lbl := map[string]string{"route": route}
		if v := sampleValue(t, fams, "nutriserve_http_requests_total", "nutriserve_http_requests_total", lbl); v != float64(rs.Requests) {
			t.Errorf("route %q requests %v, want %d", route, v, rs.Requests)
		}
		for class, n := range rs.ByClass {
			cl := map[string]string{"route": route, "class": class}
			if v := sampleValue(t, fams, "nutriserve_http_responses_total", "nutriserve_http_responses_total", cl); v != float64(n) {
				t.Errorf("route %q class %s %v, want %d", route, class, v, n)
			}
		}
	}
}

// TestRuntimeExposition: the runtime gauges render as two unlabelled
// gauge families that parse under the same conformance rules as the
// registry's, each carrying its RuntimeStats field.
func TestRuntimeExposition(t *testing.T) {
	rs := RuntimeStats{HeapAllocBytes: 13_100_000, NextGCBytes: 28_000_000, HeapSysBytes: 40 << 20}
	var buf bytes.Buffer
	if err := WriteRuntimePrometheus(&buf, rs); err != nil {
		t.Fatal(err)
	}
	fams := parseExposition(t, buf.String())
	want := map[string]uint64{
		"nutriserve_go_heap_alloc_bytes": rs.HeapAllocBytes,
		"nutriserve_go_next_gc_bytes":    rs.NextGCBytes,
	}
	if len(fams) != len(want) {
		t.Errorf("exposition has %d families, want %d", len(fams), len(want))
	}
	for name, v := range want {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing from exposition", name)
		}
		if f.typ != "gauge" || f.help == "" {
			t.Errorf("%s: type %q help %q, want a gauge with HELP text", name, f.typ, f.help)
		}
		if got := sampleValue(t, fams, name, name, map[string]string{}); got != float64(v) {
			t.Errorf("%s = %v, want %d", name, got, v)
		}
	}
}

// TestPrometheusHistogram pins the histogram contract: buckets are
// rendered cumulative and monotone over ascending second-valued le
// bounds, the terminal le="+Inf" bucket equals _count (so overflow
// observations are counted), and _sum is the snapshot sum in seconds.
func TestPrometheusHistogram(t *testing.T) {
	g := testRegistry()
	snap := g.Snapshot()

	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams := parseExposition(t, buf.String())
	f := fams["nutriserve_http_request_duration_seconds"]
	if f == nil {
		t.Fatal("histogram family missing")
	}

	for route, rs := range snap.Routes {
		var les []float64
		var counts []float64
		inf := math.NaN()
		for _, s := range f.samples {
			if s.name != "nutriserve_http_request_duration_seconds_bucket" || s.labels["route"] != route {
				continue
			}
			le := s.labels["le"]
			if le == "+Inf" {
				inf = s.value
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("route %q: unparseable le %q", route, le)
			}
			les = append(les, bound)
			counts = append(counts, s.value)
		}
		if len(les) != len(rs.Latency.Buckets) {
			t.Fatalf("route %q: %d finite buckets exposed, snapshot has %d", route, len(les), len(rs.Latency.Buckets))
		}
		var cum uint64
		for i, b := range rs.Latency.Buckets {
			if want := b.UpperMs / 1000; les[i] != want {
				t.Errorf("route %q bucket %d le %v, want %v (ms converted to s)", route, i, les[i], want)
			}
			if i > 0 && les[i] <= les[i-1] {
				t.Errorf("route %q bucket bounds not ascending at %d: %v after %v", route, i, les[i], les[i-1])
			}
			cum += b.Count
			if counts[i] != float64(cum) {
				t.Errorf("route %q bucket le=%v count %v, want cumulative %d", route, les[i], counts[i], cum)
			}
			if i > 0 && counts[i] < counts[i-1] {
				t.Errorf("route %q cumulative counts decrease at bucket %d", route, i)
			}
		}
		if math.IsNaN(inf) {
			t.Fatalf("route %q has no le=\"+Inf\" bucket", route)
		}
		lbl := map[string]string{"route": route}
		count := sampleValue(t, fams, "nutriserve_http_request_duration_seconds",
			"nutriserve_http_request_duration_seconds_count", lbl)
		if inf != count {
			t.Errorf("route %q le=+Inf %v != _count %v", route, inf, count)
		}
		if count != float64(rs.Latency.Count) {
			t.Errorf("route %q _count %v, want %d", route, count, rs.Latency.Count)
		}
		if inf < counts[len(counts)-1] {
			t.Errorf("route %q +Inf bucket %v below last finite bucket %v", route, inf, counts[len(counts)-1])
		}
		sum := sampleValue(t, fams, "nutriserve_http_request_duration_seconds",
			"nutriserve_http_request_duration_seconds_sum", lbl)
		if want := rs.Latency.SumMs / 1000; math.Abs(sum-want) > 1e-9 {
			t.Errorf("route %q _sum %v, want %v", route, sum, want)
		}
	}
}

// TestPrometheusDeterministic pins scrape diffability: with no traffic
// in between, two scrapes are byte-identical (routes sorted, no map
// iteration order leaking into the output).
func TestPrometheusDeterministic(t *testing.T) {
	g := testRegistry()
	g.Route("/v1/recipe").Observe(200, time.Millisecond)
	g.Route("/metrics").Observe(200, 50*time.Microsecond)
	var a, b bytes.Buffer
	if err := g.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two idle scrapes differ")
	}
}

type failWriter struct{ err error }

func (f failWriter) Write(p []byte) (int, error) { return 0, f.err }

func TestPrometheusWriteError(t *testing.T) {
	g := testRegistry()
	want := errors.New("scrape socket closed")
	if err := g.WritePrometheus(failWriter{err: want}); !errors.Is(err, want) {
		t.Fatalf("got %v, want the writer's error", err)
	}
}
