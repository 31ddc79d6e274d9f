package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same runs", parent, parent, false, "within bound"},
		{"higher is better and every pair wins",
			parent, []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, false, "improved"},
		{"lower is better, so the same rise regresses",
			parent, []float64{115, 116, 114, 115, 117, 113, 115, 116, 114, 115}, true, "regressed"},
		{"small consistent rise inside the bound is within bound",
			parent, []float64{103, 104, 102, 103, 105, 101, 103, 104, 102, 103}, true, "within bound"},
		{"a parent spread wider than the bound is unresolved",
			[]float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}, []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}, true, "unresolved"},
		{"wide spread but every change run better than every parent run",
			[]float64{80, 120, 90, 110, 100}, []float64{60, 61, 62, 63, 64}, true, "improved"},
		{"8 of 10 pairs won is no gain",
			parent, []float64{110, 111, 109, 110, 112, 108, 110, 111, 90, 90}, false, "within bound"},
	} {
		if got := verdict(tc.a, tc.b, tc.lowerBetter, 0.10); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestLayerVerdict(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	faster := []float64{8, 8.1, 7.9, 8, 8.2, 7.8, 8, 8.1, 7.9, 8}
	if v := layerVerdict(parent, faster, true); v != "improved" {
		t.Errorf("a consistent 20%% drop in a lower-is-better time: %q", v)
	}
	if v := layerVerdict(faster, parent, true); v != "worsened" {
		t.Errorf("the reverse: %q", v)
	}
	if v := layerVerdict(parent, parent, true); v != "no claim" {
		t.Errorf("identical runs: %q", v)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write("BENCHMARK.json", `{"end_to_end":[{"name":"throughput_per_s","unit":"1/s","better":"higher","bound":0.1}],
		"per_layer":[{"name":"match.match_us","unit":"us","better":"lower"}]}`)
	rec := func(v float64) string {
		return `{"workload":"bulk-paper","seed":1,"seconds":20,"correct":true,"attempted":10,"failed":0,"metrics":{` +
			`"throughput_per_s":{"value":` + ftoa(v) + `,"unit":"1/s"},"match.match_us":{"value":1.2,"unit":"us"}}}` + "\n"
	}
	a := write("a.jsonl", rec(100)+rec(101)+rec(99)+rec(100)+rec(100))
	b := write("b.jsonl", rec(80)+rec(81)+rec(79)+rec(80)+rec(80))
	var out strings.Builder
	if code := compare(dir, []string{a, b}, &out); code != 1 {
		t.Errorf("a 20%% throughput drop: compare exited %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "match.match_us") {
		t.Errorf("output lacks the verdict or the per-layer row:\n%s", out.String())
	}
	out.Reset()
	if code := compare(dir, []string{a, a}, &out); code != 0 {
		t.Errorf("identical files: compare exited %d\n%s", code, out.String())
	}
	if code := compare(dir, []string{a, write("bad.jsonl", "{}\n")}, &out); code != 2 {
		t.Errorf("a file of non-records: compare exited %d, want 2", code)
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
