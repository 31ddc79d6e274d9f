package main

// -compare: judge a change's runs against its parent's under the bounds
// BENCHMARK.json fixes. Runs are paired by position within each
// workload, so record them alternating parent and change.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json -compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runs holds one side's values per workload and metric, in file order.
type runs struct {
	values map[string]map[string][]float64
	failed map[string]int
}

func readRuns(path string) (runs, error) {
	r := runs{values: map[string]map[string][]float64{}, failed: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Workload == "" {
			return r, fmt.Errorf("%s:%d: not a nutribench record", path, n)
		}
		if r.values[rec.Workload] == nil {
			r.values[rec.Workload] = map[string][]float64{}
		}
		for k, m := range rec.Metrics {
			r.values[rec.Workload][k] = append(r.values[rec.Workload][k], m.Value)
		}
		r.failed[rec.Workload] += rec.Failed
	}
	return r, sc.Err()
}

// gain reports whether change runs b beat parent runs a: b wins at
// least nine tenths of the pairs (ties count for neither) and the
// medians differ, in b's favour, by more than the parent's interquartile
// distance.
func gain(a, b []float64, lowerBetter bool) bool {
	better := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1, _, q3 := quartiles(a)
	ma, mb := median(a), median(b)
	return pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(mb, ma) && math.Abs(mb-ma) > q3-q1
}

// verdict judges an end-to-end metric. improved: a gain. unresolved:
// the parent's own spread exceeds the bound, unless every change run
// beats every parent run. regressed: b's median is worse than a's by
// more than the bound.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	allBetter := len(a) > 0 && len(b) > 0
	for _, y := range b {
		for _, x := range a {
			allBetter = allBetter && (lowerBetter && y < x || !lowerBetter && y > x)
		}
	}
	ma, mb := median(a), median(b)
	q1, _, q3 := quartiles(a)
	worse := ratio(mb-ma, ma)
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case gain(a, b, lowerBetter):
		return "improved"
	case ratio(q3-q1, math.Abs(ma)) > bound && !allBetter:
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "within bound"
}

// layerVerdict judges a per-layer metric, which has no bound: a gain
// either way, or no claim.
func layerVerdict(a, b []float64, lowerBetter bool) string {
	switch {
	case gain(a, b, lowerBetter):
		return "improved"
	case gain(b, a, lowerBetter):
		return "worsened"
	}
	return "no claim"
}

// compare prints every (workload, metric) pair of two record files with
// medians and quartiles and, for end-to-end metrics, a verdict. It
// returns 1 when any metric regressed.
func compare(root string, args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: nutribench -compare parent.jsonl change.jsonl")
		return 2
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		fmt.Fprintf(os.Stderr, "BENCHMARK.json: %v\n", err)
		return 2
	}
	parent, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	change, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var names []string
	for wl := range parent.values {
		if change.values[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	side := func(xs []float64) string {
		q1, _, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
	}
	code := 0
	for _, wl := range names {
		a, c := parent.values[wl], change.values[wl]
		fmt.Fprintf(w, "%s: failed operations parent %d, change %d\n", wl, parent.failed[wl], change.failed[wl])
		for _, m := range sp.EndToEnd {
			if len(a[m.Name]) == 0 || len(c[m.Name]) == 0 {
				continue
			}
			v := verdict(a[m.Name], c[m.Name], m.Better == "lower", m.Bound)
			if v == "improved" && change.failed[wl] > parent.failed[wl] {
				v = "within bound (more operations failed: no gain)"
			}
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "  %-26s %-6s parent %-34s change %-34s %+7.2f%%  %s (bound %.0f%%)\n", m.Name, m.Unit,
				side(a[m.Name]), side(c[m.Name]), 100*ratio(median(c[m.Name])-median(a[m.Name]), median(a[m.Name])), v, 100*m.Bound)
		}
		for _, m := range sp.PerLayer {
			if len(a[m.Name]) == 0 || len(c[m.Name]) == 0 {
				continue
			}
			v := layerVerdict(a[m.Name], c[m.Name], m.Better == "lower")
			if v == "improved" && change.failed[wl] > parent.failed[wl] {
				v = "no claim (more operations failed)"
			}
			fmt.Fprintf(w, "  %-34s %-6s parent %-34s change %-34s %+7.2f%%  %s\n", m.Name, m.Unit,
				side(a[m.Name]), side(c[m.Name]), 100*ratio(median(c[m.Name])-median(a[m.Name]), median(a[m.Name])), v)
		}
	}
	return code
}
