package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimeNeverNegative(t *testing.T) {
	if v, clamped := selfTime(10, 3, 2.5); v != 4.5 || clamped {
		t.Errorf("selfTime(10, 3, 2.5) = %v, %t; want 4.5, false", v, clamped)
	}
	if v, clamped := selfTime(10, 8, 4); v != 0 || !clamped {
		t.Errorf("selfTime(10, 8, 4) = %v, %t; want 0, clamped", v, clamped)
	}
	if v, clamped := selfTime(10, 10); v != 0 || clamped {
		t.Errorf("selfTime(10, 10) = %v, %t; want 0, not clamped", v, clamped)
	}
}

func TestTracerSpansAndTotals(t *testing.T) {
	tr := newTracer()
	root := len(tr.spans)
	tr.spans = append(tr.spans, span{name: "item", id: root, parent: -1})
	loop(tr, "pipeline.tokenize", root, 0, []string{"a", "b", "c"}, func(string) { time.Sleep(time.Microsecond) })
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want root + 1", len(tr.spans))
	}
	s := tr.spans[1]
	if s.name != "pipeline.tokenize" || s.parent != root || s.ops != 3 || s.end < s.start {
		t.Errorf("child span = %+v", s)
	}
	if tr.ops["pipeline.tokenize"] != 3 || tr.total["pipeline.tokenize"] <= 0 {
		t.Errorf("totals = %v over %v ops", tr.total["pipeline.tokenize"], tr.ops["pipeline.tokenize"])
	}

	var off *tracer // an untraced pass records nothing and times nothing
	loop(off, "pipeline.tokenize", -1, 0, []string{"a"}, func(string) {})
	off.busy("x", time.Second, 1)
	if off.now() != 0 {
		t.Error("nil tracer read the clock")
	}
}

func TestDecodePhrases(t *testing.T) {
	got, err := decodePhrases(nil, []byte(`{"ingredients":["2 cups flour","1 egg"],"servings":4}`))
	if err != nil || !reflect.DeepEqual(got, []string{"2 cups flour", "1 egg"}) {
		t.Errorf("recipe: %q, %v", got, err)
	}
	got, err = decodePhrases(got, []byte(`{"phrase":"salt"}`))
	if err != nil || !reflect.DeepEqual(got, []string{"2 cups flour", "1 egg", "salt"}) {
		t.Errorf("estimate appended: %q, %v", got, err)
	}
}

func TestWriteTraceIsChromeTraceFormat(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	spans := []span{
		{name: "item", id: 0, parent: -1, item: 0, start: 0, end: 5 * time.Microsecond, ops: 1},
		{name: "server.recipe", id: 1, parent: 0, item: 0, start: time.Microsecond, end: 3 * time.Microsecond, ops: 1},
	}
	if err := writeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []struct {
			Name    string
			Ph      string
			Ts, Dur float64
			Args    map[string]int
		}
	}
	if err := readJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.TraceEvents) != 2 {
		t.Fatalf("%d events", len(got.TraceEvents))
	}
	e := got.TraceEvents[1]
	if e.Name != "server.recipe" || e.Ph != "X" || e.Ts != 1 || e.Dur != 2 || e.Args["parent"] != 0 || e.Args["item"] != 0 {
		t.Errorf("event = %+v", e)
	}
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
