// Command nutribench measures nutriserve end to end and layer by layer.
//
// It builds cmd/nutriserve from the checkout it runs in, bakes the
// SR26-scale composition image, generates the paper-scale recipe corpus
// from -seed, and for each workload boots a fresh server with
// production defaults, drives it from this one client process for
// -seconds, checks the answers, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {"setup_s": {"value": 0.0081, "unit": "s"}, ...}}
//
// -trace 0 reports the end-to-end metrics. -trace 1 also replays the
// run's inputs in process, timing each layer's public functions, writes
// the spans to <out-dir>/trace-<workload>.json, and reports the
// per-layer metrics. By default it reports both. The command exits 1
// when any answer or count fails verification, and 2 when it cannot
// run at all.
//
// Usage:
//
//	bash bench/run.sh --workload bulk-paper --seed 1 --seconds 25 --trace 0
//	cd bench && go run . -seed 1 -o ../.bench_build/runs.jsonl
//	cd bench && go run . -compare parent.jsonl change.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"nutriprofile/internal/usda"
	"nutriprofile/internal/usda/bake"
)

const (
	// setupRepeats is how many times each set-up step is timed; the
	// median is reported. Single boots on a shared host range from 7 to
	// 16 ms; 31 of them cost about half a second.
	setupRepeats = 31
	// imageSynthetic synthetic foods merged into the 714-food seed table
	// make 8,214 foods — USDA SR26 scale, the table the paper matches
	// against, and the image `dbbake -synth 7500` writes.
	imageSynthetic = 7500
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the command ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one workload run as -o stores it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	result
}

type config struct {
	root     string
	names    []string
	seed     int64
	seconds  int
	e2e      bool // report end-to-end metrics
	layers   bool // run the traced replay and report per-layer metrics
	out      string
	traceDir string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nutribench: ")
	workload := flag.String("workload", "all", "bulk-paper, bulk-cold, interactive-zipf, mixed, or all")
	seed := flag.Int64("seed", 1, "input seed: corpus, popularity and salts")
	seconds := flag.Int("seconds", 25, "measured seconds per workload run")
	trace := flag.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics, from an added traced replay; -1: both")
	out := flag.String("o", "", "append one JSON record per workload run to this file")
	outDir := flag.String("out-dir", "", "directory for trace files (default .bench_build/out in the checkout)")
	cmp := flag.Bool("compare", false, "compare two record files: -compare parent.jsonl change.jsonl")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if *cmp {
		os.Exit(compare(root, flag.Args(), os.Stdout))
	}
	cfg := config{root: root, seed: *seed, seconds: *seconds, e2e: *trace != 1, layers: *trace != 0, out: *out, traceDir: *outDir}
	if *trace < -1 || *trace > 1 || *seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *workload == "all" {
		for _, w := range workloads {
			cfg.names = append(cfg.names, w.name)
		}
	} else if _, ok := workloadByName(*workload); ok {
		cfg.names = []string{*workload}
	} else {
		log.Printf("unknown workload %q", *workload)
		os.Exit(2)
	}
	if cfg.traceDir == "" {
		cfg.traceDir = filepath.Join(root, ".bench_build", "out")
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// findRoot walks up from the working directory to the nutriprofile
// module's root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module nutriprofile\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a nutriprofile checkout (no go.mod with module nutriprofile above the working directory)")
		}
		dir = parent
	}
}

// run sets up once and runs each named workload. An error means the
// benchmark could not run; failed verification is reported in the
// result instead.
func run(cfg config, stdout io.Writer) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	build := filepath.Join(cfg.root, ".bench_build")
	for _, dir := range []string{filepath.Join(build, "bin"), cfg.traceDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return res, err
		}
	}
	t0 := time.Now()
	bin, err := buildServer(cfg.root, filepath.Join(build, "bin"))
	if err != nil {
		return res, err
	}
	t1 := time.Now()
	img := filepath.Join(build, "sr26.img")
	if err := bake.WriteFile(img, usda.Merged(imageSynthetic, 1), nil); err != nil {
		return res, fmt.Errorf("baking %s: %w", img, err)
	}
	ld, err := bake.LoadFile(img)
	if err != nil {
		return res, err
	}
	ref, err := referenceHandler(ld, img)
	if err != nil {
		return res, err
	}
	t2 := time.Now()
	rs, err := genCorpus(paperRecipes, cfg.seed)
	if err != nil {
		return res, err
	}
	t3 := time.Now()
	runners := make([]runner, len(cfg.names))
	for i, name := range cfg.names {
		w, _ := workloadByName(name)
		runners[i] = w.prepare(rs, cfg.seed)
	}
	runtime.GC() // drop the corpus's strings; the rendered inputs are plain bytes
	log.Printf("set-up: server build %v, image %v, corpus %v, inputs %v",
		t1.Sub(t0).Round(time.Millisecond), t2.Sub(t1).Round(time.Millisecond),
		t3.Sub(t2).Round(time.Millisecond), time.Since(t3).Round(time.Millisecond))
	for i, name := range cfg.names {
		rec, err := runWorkload(cfg, name, runners[i], bin, img, ref)
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		printRecord(stdout, rec)
		res.Correct = res.Correct && rec.Correct
		res.Attempted += rec.Attempted
		res.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if endToEnd[k] && !cfg.e2e || !endToEnd[k] && !cfg.layers {
				continue
			}
			if len(cfg.names) > 1 {
				k = name + "." + k
			}
			res.Metrics[k] = v
		}
		if cfg.out != "" {
			if err := appendRecord(cfg.out, rec); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// runWorkload measures set-up time over setupRepeats fresh boots, keeps
// the last server for the run, drives it, verifies the answers and
// counts, and replays the inputs when per-layer metrics are wanted.
func runWorkload(cfg config, name string, run runner, bin, img string, ref http.Handler) (record, error) {
	rec := record{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds}
	var (
		boots []float64
		srv   *serverProc
	)
	for i := range setupRepeats {
		p, d, err := bootServer(bin, img)
		if err != nil {
			return rec, err
		}
		boots = append(boots, d.Seconds())
		if i < setupRepeats-1 {
			if err := p.stop(); err != nil {
				return rec, err
			}
			continue
		}
		srv = p
	}
	defer func() {
		if srv != nil {
			_ = srv.stop() // error path only; the run's own stop is checked below
		}
	}()
	t := target{addr: srv.addr, pid: srv.pid()}
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	before, err := scrape(client, t.addr)
	if err != nil {
		return rec, err
	}
	runtime.GC() // start the window with the client's garbage collected
	o, err := run(t, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return rec, err
	}
	after, err := scrape(client, t.addr)
	if err != nil {
		return rec, err
	}
	p := srv
	srv = nil
	if err := p.stop(); err != nil {
		o.problem(1, "%v", err)
	}

	c := counters{before: before, after: after}
	checkCounts(o, c)
	if n, first := verify(ref, o.samples); n > 0 {
		o.problem(n, "%d of %d sampled answers differ from the in-process answer; first: %s", n, len(o.samples), first)
	}

	rec.Metrics = map[string]metric{}
	addMeasured(rec.Metrics, median(boots), o, c)
	if cfg.layers {
		items, err := o.items()
		if err != nil {
			return rec, fmt.Errorf("replay inputs: %w", err)
		}
		t0 := time.Now()
		rr, err := replay(img, items)
		log.Printf("%s: replayed %d items in %v", name, len(items), time.Since(t0).Round(time.Millisecond))
		if err != nil {
			o.problem(1, "replay: %v", err)
		} else {
			addReplayed(rec.Metrics, o, c, rr)
			if err := writeTrace(filepath.Join(cfg.traceDir, "trace-"+name+".json"), rr.t.spans); err != nil {
				return rec, err
			}
		}
	}
	for _, p := range o.problems {
		log.Printf("%s: FAIL %s", name, p)
	}
	rec.Attempted, rec.Failed = o.attempted, o.failed
	rec.Correct = o.failed == 0 && len(o.problems) == 0
	return rec, nil
}

// checkCounts holds the server's own counters to the client's: every
// line sent on a bulk stream answered, none of them in error.
func checkCounts(o *outcome, c counters) {
	if got := c.prom("nutriserve_batch_lines_total"); got != float64(o.lines) {
		o.problem(max(int(math.Abs(got-float64(o.lines))), 1),
			"nutriserve_batch_lines_total rose by %.0f, want the %d lines sent", got, o.lines)
	}
	if got := c.prom("nutriserve_batch_line_errors_total"); got != 0 {
		o.problem(int(got), "nutriserve_batch_line_errors_total rose by %.0f, want 0", got)
	}
}

// endToEnd lists the metrics gated end to end; every other metric is a
// per-layer metric or a diagnostic. Throughput, latency and CPU per
// operation are diagnostics: on the shared 2-vCPU host they move by
// 5–27 % between runs of one commit (README.md, "Baseline"), more than
// the 10 % bound they were meant to hold.
var endToEnd = map[string]bool{"setup_s": true, "server_rss_peak_mb": true}

// addMeasured adds what the end-to-end run measured: set-up time, peak
// memory, the client's view, and exact counts from the server's
// counters.
func addMeasured(m map[string]metric, setup float64, o *outcome, c counters) {
	m["setup_s"] = metric{setup, "s"}
	m["server_rss_peak_mb"] = metric{o.rss, "MB"}

	l := summarise(o.lat)
	m["client.throughput_per_s"] = metric{o.throughput, "1/s"}
	m["client.recipe_p50_ms"] = metric{l.p50, "ms"}
	m["client.recipe_p99_ms"] = metric{l.p99, "ms"}
	m["client.latency_samples"] = metric{float64(l.n), "count"}
	m["client.gen_late_p99_ms"] = metric{summarise(o.late).p99, "ms"}
	m["client.slo_max_rps"] = metric{o.sloRate, "1/s"}
	m["server.cpu_ms_per_kop"] = metric{ratio(float64(o.cpu)/1e6*1000, float64(o.windowOps)), "ms"}

	ops := float64(o.attempted)
	hits, misses := c.memo("nutriserve_memo_hits_total", "phrase"), c.memo("nutriserve_memo_misses_total", "phrase")
	m["memo.phrase_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["memo.phrase_admit_frac"] = metric{ratio(c.memo("nutriserve_memo_admissions_total", "phrase"), misses), "ratio"}
	m["memo.phrase_reject_frac"] = metric{ratio(c.memo("nutriserve_memo_rejections_total", "phrase"), misses), "ratio"}
	mh, mm := c.memo("nutriserve_memo_hits_total", "match"), c.memo("nutriserve_memo_misses_total", "match")
	m["memo.match_hit_ratio"] = metric{ratio(mh, mh+mm), "ratio"}
	st := func(f func(s serverStats) float64) float64 { return f(c.after.stats) - f(c.before.stats) }
	m["core.l1_hit_ratio"] = metric{ratio(st(func(s serverStats) float64 { return s.Shard.L1Hits }),
		st(func(s serverStats) float64 { return s.Shard.Phrases })), "ratio"}
	coalesced := st(func(s serverStats) float64 { return s.Flight.Coalesced })
	m["flight.coalesced_frac"] = metric{ratio(coalesced, coalesced+st(func(s serverStats) float64 { return s.Flight.Leads })), "ratio"}
	m["match.queries_per_op"] = metric{ratio(mm, ops), "count"}
	// Every match-cache miss ranks once; arena checkouts do not count
	// rankings, since a batch worker's session holds one arena throughout.
	m["match.postings_avoided_per_query"] = metric{ratio(c.prom("nutriserve_match_prune_postings_avoided_total"), mm), "count"}
	m["match.docs_dropped_per_query"] = metric{ratio(c.prom("nutriserve_match_prune_docs_dropped_total"), mm), "count"}
	m["server.lines_per_window"] = metric{ratio(c.prom("nutriserve_batch_lines_total"), c.prom("nutriserve_batch_windows_total")), "count"}
	var requests float64
	for _, r := range []string{"/v1/estimate", "/v1/recipe", "/v1/batch"} {
		requests += c.route("nutriserve_http_requests_total", r)
	}
	m["server.shed_frac"] = metric{ratio(c.prom("nutriserve_http_shed_total"), requests), "ratio"}
	for _, r := range []string{"recipe", "estimate"} {
		route := "/v1/" + r
		m["server.observed_"+r+"_ms"] = metric{ratio(1000*c.route("nutriserve_http_request_duration_seconds_sum", route),
			c.route("nutriserve_http_request_duration_seconds_count", route)), "ms"}
	}
	m["runtime.alloc_bytes_per_op"] = metric{ratio(st(func(s serverStats) float64 { return s.Runtime.TotalAllocBytes }), ops), "B"}
	m["runtime.gc_per_kop"] = metric{ratio(1000*st(func(s serverStats) float64 { return s.Runtime.NumGC }), ops), "count"}
}

// addReplayed adds the traced replay's layer timings, the self times
// derived from them, and how they reconcile with the end-to-end run.
func addReplayed(m map[string]metric, o *outcome, c counters, rr *replayResult) {
	t := rr.t
	us := func(name string) float64 { return ratio(float64(t.total[name])/1e3, float64(t.ops[name])) }
	for _, name := range []string{"core.estimate", "core.estimate_uncached", "pipeline.tokenize", "ner.extract", "match.match"} {
		m[name+"_us"] = metric{us(name), "us"}
	}
	m["server.batch_us_per_line"] = metric{us("server.batch"), "us"}
	m["server.recipe_us"] = metric{us("server.recipe"), "us"}
	m["server.estimate_us"] = metric{us("server.estimate"), "us"}
	serverOps := float64(t.ops["server.batch"] + t.ops["server.recipe"] + t.ops["server.estimate"])
	serverUs := float64(t.total["server.batch"]+t.total["server.recipe"]+t.total["server.estimate"]) / 1e3
	phrases := float64(t.ops["core.estimate"])
	serverPerOp := ratio(serverUs, serverOps)
	self, c1 := selfTime(serverPerOp, us("core.estimate")*ratio(phrases, serverOps))
	units, c2 := selfTime(us("core.estimate_uncached"), us("pipeline.tokenize"), us("ner.extract"),
		us("match.match")*ratio(float64(t.ops["match.match"]), phrases))
	m["server.self_us_per_op"] = metric{self, "us"}
	m["units.self_us"] = metric{units, "us"}
	clamped := 0
	for _, c := range []bool{c1, c2} {
		if c {
			clamped++
		}
	}
	m["trace.clamped"] = metric{float64(clamped), "count"}
	m["bake.load_ms"] = metric{rr.loadMs, "ms"}
	m["core.new_ms"] = metric{rr.newMs, "ms"}
	m["trace.overhead_frac"] = metric{rr.overhead, "ratio"}
	cpuUsPerOp := ratio(float64(o.cpu)/1e3, float64(o.windowOps))
	m["trace.reconcile_ratio"] = metric{ratio(serverPerOp, cpuUsPerOp), "ratio"}
	queriesPerOp := ratio(c.memo("nutriserve_memo_misses_total", "match"), float64(o.attempted))
	m["match.share_of_server_cpu"] = metric{ratio(us("match.match")*queriesPerOp, cpuUsPerOp), "ratio"}
}

func printRecord(w io.Writer, rec record) {
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-17s %-34s %14.4f %s\n", rec.Workload, k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "%-17s attempted %d, failed %d, correct %t\n", rec.Workload, rec.Attempted, rec.Failed, rec.Correct)
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.Write(b)
	bw.WriteByte('\n')
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
