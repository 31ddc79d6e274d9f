package main

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

const promBefore = `# HELP nutriserve_batch_lines_total NDJSON lines answered on bulk streams.
# TYPE nutriserve_batch_lines_total counter
nutriserve_batch_lines_total 100
nutriserve_memo_hits_total{cache="phrase"} 10
nutriserve_memo_hits_total{cache="match"} 5
nutriserve_http_request_duration_seconds_sum{route="/v1/recipe"} 0.25
`

const promAfter = `nutriserve_batch_lines_total 1100
nutriserve_memo_hits_total{cache="phrase"} 70
nutriserve_memo_hits_total{cache="match"} 5
nutriserve_http_request_duration_seconds_sum{route="/v1/recipe"} 1.5
nutriserve_match_docs 8214
`

func TestPromDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	c := counters{before: snapshot{prom: before}, after: snapshot{prom: after}}
	for _, tc := range []struct {
		got, want float64
		what      string
	}{
		{c.prom("nutriserve_batch_lines_total"), 1000, "unlabelled counter"},
		{c.memo("nutriserve_memo_hits_total", "phrase"), 60, "labelled series"},
		{c.memo("nutriserve_memo_hits_total", "match"), 0, "unchanged series"},
		{c.route("nutriserve_http_request_duration_seconds_sum", "/v1/recipe"), 1.25, "histogram sum"},
		{c.prom("nutriserve_match_docs"), 8214, "series new in the second scrape"},
		{c.prom("nutriserve_absent_total"), 0, "absent series"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: delta %v, want %v", tc.what, tc.got, tc.want)
		}
	}
	if _, err := parseProm(strings.NewReader("nutriserve_broken\n")); err == nil {
		t.Error("a line without a value parsed")
	}
	if _, err := parseProm(strings.NewReader("nutriserve_broken x\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestRatioOfNothingIsZero(t *testing.T) {
	if r := ratio(5, 0); r != 0 {
		t.Errorf("ratio(5, 0) = %v", r)
	}
	if r := ratio(1, 4); r != 0.25 {
		t.Errorf("ratio(1, 4) = %v", r)
	}
}

func TestProcReadsOwnProcess(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	x := 0
	for i := range 20_000_000 {
		x += i
	}
	_ = x
	cpu, err := procCPU(os.Getpid())
	if err != nil || cpu < 0 {
		t.Errorf("procCPU = %v, %v", cpu, err)
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil || rss <= 0 {
		t.Errorf("procPeakRSS = %v, %v", rss, err)
	}
}

func TestReadAnswer(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 14\r\n\r\n{\"phrase\":\"x\"}" +
		"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5\r\n{\"ser\r\na\r\nvings\":1}\n\r\n0\r\n\r\n" +
		"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}"
	br := bufio.NewReader(strings.NewReader(raw))
	for _, want := range []struct {
		status int
		body   string
	}{
		{200, `{"phrase":"x"}`},
		{200, "{\"servings\":1}\n"},
		{429, `{}`},
	} {
		status, body, err := readAnswer(br, nil)
		if err != nil || status != want.status || string(body) != want.body {
			t.Errorf("readAnswer = %d %q %v, want %d %q", status, body, err, want.status, want.body)
		}
	}
	if _, _, err := readAnswer(br, nil); err == nil {
		t.Error("reading past the last answer succeeded")
	}
}
