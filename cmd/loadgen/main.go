// Command loadgen drives a running nutriserve with the paper-scale
// synthetic recipe corpus: the whole corpus is streamed through
// concurrent POST /v1/batch bulk streams while interactive workers mix
// POST /v1/estimate and POST /v1/recipe traffic against the same
// process — the sustained-load shape the serving layer's backpressure
// design (DESIGN.md §14) is built for.
//
// The run verifies correctness, not just survival: every bulk stream
// must come back with exactly one well-formed NDJSON line per input
// line (zero lost, zero torn, zero in-stream errors for the generated
// corpus), and -metrics-check cross-checks the server's own
// /metrics batch counters against the client-side line count. Optional
// SLO gates turn the run into a CI check: -slo-p50/-slo-p99 bound the
// interactive latency quantiles observed while bulk runs, -min-rps
// floors the bulk throughput in recipes per second, and
// -min-hit-ratio floors the server's phrase-cache hit ratio computed
// from /metrics counter deltas over the run.
//
// -zipf skews the interactive workers' phrase/recipe popularity with
// a Zipf(s) distribution (rank 0 hottest) instead of a uniform draw —
// the head-heavy shape real recipe traffic has, and the workload the
// TinyLFU admission policy (-cache-policy on the server) is built for.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 -recipes 2000 -bulk 2 -interactive 4
//	loadgen -paper -min-rps 100 -slo-p99 250ms -metrics-check
//	loadgen -recipes 2000 -zipf 1.1 -min-hit-ratio 0.30
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/yield"
)

// paperCorpusSize is the recipe count of the paper's scraped corpus.
const paperCorpusSize = 118071

// recipeLine is the NDJSON recipe form (the wire shape of
// server.RecipeRequest).
type recipeLine struct {
	Ingredients []string `json:"ingredients"`
	Servings    int      `json:"servings,omitempty"`
	Method      string   `json:"method,omitempty"`
}

// estimateLine is the NDJSON estimate form (server.EstimateRequest).
type estimateLine struct {
	Phrase string `json:"phrase"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the running nutriserve")
	recipes := flag.Int("recipes", 2000, "corpus size to stream through /v1/batch")
	paper := flag.Bool("paper", false, "use the paper-scale corpus (118,071 recipes; overrides -recipes)")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	bulk := flag.Int("bulk", 2, "concurrent /v1/batch streams the corpus is split across")
	interactive := flag.Int("interactive", 4, "concurrent interactive workers mixing /v1/estimate and /v1/recipe")
	sloP50 := flag.Duration("slo-p50", 0, "fail if interactive p50 exceeds this while bulk runs (0 disables)")
	sloP99 := flag.Duration("slo-p99", 0, "fail if interactive p99 exceeds this while bulk runs (0 disables)")
	minRPS := flag.Float64("min-rps", 0, "fail if bulk throughput falls below this many recipes/s (0 disables)")
	maxShedFrac := flag.Float64("max-shed-frac", 0, "fail if more than this fraction of interactive requests is shed with 429 (0 disables)")
	metricsCheck := flag.Bool("metrics-check", false, "scrape /metrics before and after and verify the batch counter deltas")
	zipfS := flag.Float64("zipf", 0, "Zipf skew s for interactive phrase/recipe popularity (0: uniform)")
	minHitRatio := flag.Float64("min-hit-ratio", 0, "fail if the server's phrase-cache hit ratio over the run falls below this (scrapes /metrics; 0 disables)")
	cold := flag.Bool("cold", false, "salt every bulk phrase with a unique token: 100% cache misses, so the run measures the matcher-bound cold path (-min-rps becomes the cold-path recipes/s floor)")
	flag.Parse()

	n := *recipes
	if *paper {
		n = paperCorpusSize
	}
	if *bulk < 1 {
		fatalf("-bulk must be >= 1")
	}
	base := strings.TrimRight(*addr, "/")

	// Render the corpus into per-stream NDJSON buffers up front so the
	// measured window contains no generation cost. A small prefix is
	// kept as structured lines for the interactive mix.
	bufs := make([]*bytes.Buffer, *bulk)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
	}
	counts := make([]int, *bulk)
	var phrases []string
	var sampleRecipes []recipeLine
	i, saltID := 0, 0
	err := recipedb.Each(recipedb.Config{NumRecipes: n, Seed: *seed}, func(r recipedb.Recipe) bool {
		line := recipeLine{Ingredients: make([]string, len(r.Ingredients)), Servings: r.Servings}
		for j := range r.Ingredients {
			line.Ingredients[j] = r.Ingredients[j].Phrase
		}
		if r.Method != yield.None {
			line.Method = r.Method.String()
		}
		// -cold salts the wire copy only: every bulk phrase gets a
		// globally unique (out-of-vocabulary) trailing token, so no two
		// lines share a normalized token stream and every single phrase
		// misses the phrase cache — the matcher pays full ranking cost
		// for the whole corpus. The interactive mix and samples keep the
		// unsalted phrases.
		wire := line
		if *cold {
			salted := make([]string, len(line.Ingredients))
			for j, p := range line.Ingredients {
				saltID++
				salted[j] = p + " zzcold" + strconv.Itoa(saltID)
			}
			wire.Ingredients = salted
		}
		b, merr := json.Marshal(wire)
		if merr != nil {
			fatalf("rendering recipe %d: %v", r.ID, merr)
		}
		k := i % *bulk
		bufs[k].Write(b)
		bufs[k].WriteByte('\n')
		counts[k]++
		if len(phrases) < 4096 {
			phrases = append(phrases, line.Ingredients[0])
		}
		if len(sampleRecipes) < 256 {
			sampleRecipes = append(sampleRecipes, line)
		}
		i++
		return true
	})
	if err != nil {
		fatalf("generating corpus: %v", err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	mode := "warm"
	if *cold {
		mode = "cold (salted, 100% miss)"
	}
	fmt.Printf("loadgen: corpus ready: %d recipes across %d bulk streams (%d interactive workers, zipf s=%g, %s)\n",
		total, *bulk, *interactive, *zipfS, mode)

	// With -zipf the interactive mix draws keys by Zipf rank — rank 0
	// is the hottest phrase — modeling the head-heavy popularity of a
	// production recipe site instead of a uniform sweep. The samplers
	// are shared across workers via the pure Rank() lookup; each worker
	// keeps its own rng.
	var zipfPhrase, zipfRecipe *recipedb.Zipf
	if *zipfS > 0 {
		zipfPhrase = recipedb.NewZipf(len(phrases), *zipfS, *seed)
		zipfRecipe = recipedb.NewZipf(len(sampleRecipes), *zipfS, *seed)
	}

	needScrape := *metricsCheck || *minHitRatio > 0
	var before map[string]float64
	if needScrape {
		if before, err = scrapeMetrics(base); err != nil {
			fatalf("scraping /metrics before run: %v", err)
		}
	}

	// Interactive workers run for the duration of the bulk phase; their
	// latencies are the quantiles the SLO gates judge.
	var stop atomic.Bool
	statsCh := make(chan workerStats, *interactive)
	var iwg sync.WaitGroup
	for w := 0; w < *interactive; w++ {
		iwg.Add(1)
		go func(wid int) {
			defer iwg.Done()
			statsCh <- interactiveWorker(&stop, base, phrases, sampleRecipes, zipfPhrase, zipfRecipe, wid)
		}(w)
	}

	// Bulk phase: each stream POSTs its pre-rendered share. net/http
	// writes the request body from its own goroutine, so reading the
	// response concurrently here is what keeps the stream's TCP windows
	// open on both directions.
	start := time.Now()
	results := make([]bulkResult, *bulk)
	var bwg sync.WaitGroup
	for s := 0; s < *bulk; s++ {
		bwg.Add(1)
		go func(s int) {
			defer bwg.Done()
			results[s] = runBulk(base+"/v1/batch", bufs[s].Bytes())
		}(s)
	}
	bwg.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	iwg.Wait()
	close(statsCh)

	var ws workerStats
	for s := range statsCh {
		ws.ok += s.ok
		ws.shed += s.shed
		ws.bad += s.bad
		ws.netErr += s.netErr
		ws.lats = append(ws.lats, s.lats...)
	}

	failed := false
	gotLines := 0
	for s, r := range results {
		switch {
		case r.err != nil:
			failed = true
			fmt.Fprintf(os.Stderr, "loadgen: FAIL bulk stream %d: %v\n", s, r.err)
		case r.status != http.StatusOK:
			failed = true
			fmt.Fprintf(os.Stderr, "loadgen: FAIL bulk stream %d: status %d\n", s, r.status)
		case r.torn:
			failed = true
			fmt.Fprintf(os.Stderr, "loadgen: FAIL bulk stream %d: torn final line\n", s)
		case r.lines != counts[s]:
			failed = true
			fmt.Fprintf(os.Stderr, "loadgen: FAIL bulk stream %d: sent %d lines, got %d back\n", s, counts[s], r.lines)
		case r.errLines != 0:
			failed = true
			fmt.Fprintf(os.Stderr, "loadgen: FAIL bulk stream %d: %d in-stream error lines\n", s, r.errLines)
		}
		gotLines += r.lines
	}

	rps := float64(gotLines) / elapsed.Seconds()
	p50 := quantile(ws.lats, 0.50)
	p99 := quantile(ws.lats, 0.99)
	fmt.Printf("loadgen: bulk     %d/%d recipes in %.2fs = %.1f recipes/s\n",
		gotLines, total, elapsed.Seconds(), rps)
	fmt.Printf("loadgen: interactive %d ok, %d shed (429), %d bad, %d net errors; p50=%s p99=%s\n",
		ws.ok, ws.shed, ws.bad, ws.netErr, p50, p99)

	if ws.bad > 0 || ws.netErr > 0 {
		failed = true
		fmt.Fprintf(os.Stderr, "loadgen: FAIL interactive: %d unexpected statuses, %d transport errors\n", ws.bad, ws.netErr)
	}
	if *maxShedFrac > 0 {
		if tot := ws.ok + ws.shed; tot > 0 && float64(ws.shed)/float64(tot) > *maxShedFrac {
			failed = true
			fmt.Fprintf(os.Stderr, "loadgen: FAIL interactive shed fraction %.3f exceeds %.3f\n",
				float64(ws.shed)/float64(tot), *maxShedFrac)
		}
	}
	if *sloP50 > 0 && p50 > *sloP50 {
		failed = true
		fmt.Fprintf(os.Stderr, "loadgen: FAIL p50 %s exceeds SLO %s\n", p50, *sloP50)
	}
	if *sloP99 > 0 && p99 > *sloP99 {
		failed = true
		fmt.Fprintf(os.Stderr, "loadgen: FAIL p99 %s exceeds SLO %s\n", p99, *sloP99)
	}
	if *minRPS > 0 && rps < *minRPS {
		failed = true
		fmt.Fprintf(os.Stderr, "loadgen: FAIL bulk throughput %.1f recipes/s below floor %.1f\n", rps, *minRPS)
	}

	var after map[string]float64
	if needScrape {
		if after, err = scrapeMetrics(base); err != nil {
			fatalf("scraping /metrics after run: %v", err)
		}
	}
	if *metricsCheck {
		delta := func(name string) float64 { return after[name] - before[name] }
		if d := delta("nutriserve_batch_lines_total"); d != float64(total) {
			failed = true
			fmt.Fprintf(os.Stderr, "loadgen: FAIL /metrics batch_lines_total delta %.0f, want %d\n", d, total)
		}
		if d := delta("nutriserve_batch_line_errors_total"); d != 0 {
			failed = true
			fmt.Fprintf(os.Stderr, "loadgen: FAIL /metrics batch_line_errors_total delta %.0f, want 0\n", d)
		}
		if d := delta("nutriserve_batch_windows_total"); d < 1 {
			failed = true
			fmt.Fprintf(os.Stderr, "loadgen: FAIL /metrics batch_windows_total delta %.0f, want >= 1\n", d)
		}
		if got := after["nutriserve_batch_streams_active"]; got != before["nutriserve_batch_streams_active"] {
			failed = true
			fmt.Fprintf(os.Stderr, "loadgen: FAIL /metrics batch_streams_active did not return to %.0f (got %.0f)\n",
				before["nutriserve_batch_streams_active"], got)
		}
		if !failed {
			fmt.Printf("loadgen: /metrics deltas verified (lines=%d, errors=0, active back to baseline)\n", total)
		}
	}
	if needScrape {
		// The phrase cache fronts every estimation the run drove —
		// interactive and bulk alike — so its counter deltas give the
		// run's own hit ratio regardless of what the server saw before.
		key := func(name string) string { return name + `{cache="phrase"}` }
		hits := after[key("nutriserve_memo_hits_total")] - before[key("nutriserve_memo_hits_total")]
		misses := after[key("nutriserve_memo_misses_total")] - before[key("nutriserve_memo_misses_total")]
		ratio := 0.0
		if hits+misses > 0 {
			ratio = hits / (hits + misses)
		}
		fmt.Printf("loadgen: phrase-cache hit ratio over run: %.3f (%.0f hits / %.0f lookups, policy deltas: reject=%.0f)\n",
			ratio, hits, hits+misses,
			after[key("nutriserve_memo_rejections_total")]-before[key("nutriserve_memo_rejections_total")])
		if *minHitRatio > 0 {
			switch {
			case hits+misses == 0:
				failed = true
				fmt.Fprintf(os.Stderr, "loadgen: FAIL -min-hit-ratio set but the run drove no cache lookups (cache disabled?)\n")
			case ratio < *minHitRatio:
				failed = true
				fmt.Fprintf(os.Stderr, "loadgen: FAIL phrase-cache hit ratio %.3f below floor %.3f\n", ratio, *minHitRatio)
			}
		}
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("loadgen: PASS")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}

type bulkResult struct {
	lines    int
	errLines int
	torn     bool
	status   int
	err      error
}

// runBulk streams one pre-rendered NDJSON buffer through /v1/batch and
// audits the response stream line by line: every line must be complete
// (newline-terminated) and valid JSON.
func runBulk(url string, body []byte) bulkResult {
	client := &http.Client{} // no timeout: a paper-scale stream runs for minutes
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return bulkResult{err: err}
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		return bulkResult{err: err}
	}
	defer resp.Body.Close()
	res := bulkResult{status: resp.StatusCode}
	if res.status != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return res
	}
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	for {
		line, rerr := br.ReadBytes('\n')
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
			if !json.Valid(line) {
				res.err = fmt.Errorf("response line %d is not valid JSON", res.lines+1)
				return res
			}
			res.lines++
			if bytes.HasPrefix(line, []byte(`{"error"`)) {
				res.errLines++
			}
		} else if len(line) > 0 {
			res.torn = true
		}
		if rerr == io.EOF {
			return res
		}
		if rerr != nil {
			res.err = rerr
			return res
		}
	}
}

type workerStats struct {
	ok, shed, bad, netErr int
	lats                  []time.Duration
}

// interactiveWorker fires alternating /v1/estimate and /v1/recipe
// requests until stop flips, recording the latency of every 200. With
// Zipf samplers the key choice is skewed (rank 0 hottest); nil
// samplers fall back to a uniform draw.
func interactiveWorker(stop *atomic.Bool, base string, phrases []string, recipes []recipeLine,
	zipfPhrase, zipfRecipe *recipedb.Zipf, wid int) workerStats {
	rng := rand.New(rand.NewSource(int64(wid)*7919 + 1))
	pick := func(z *recipedb.Zipf, n int) int {
		if z != nil {
			return z.Rank(rng.Float64())
		}
		return rng.Intn(n)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var ws workerStats
	for !stop.Load() {
		var url string
		var body []byte
		if len(recipes) == 0 || rng.Intn(2) == 0 {
			b, _ := json.Marshal(estimateLine{Phrase: phrases[pick(zipfPhrase, len(phrases))]})
			url, body = base+"/v1/estimate", b
		} else {
			b, _ := json.Marshal(recipes[pick(zipfRecipe, len(recipes))])
			url, body = base+"/v1/recipe", b
		}
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			ws.netErr++
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		switch resp.StatusCode {
		case http.StatusOK:
			ws.ok++
			ws.lats = append(ws.lats, d)
		case http.StatusTooManyRequests:
			ws.shed++
		default:
			ws.bad++
		}
	}
	return ws
}

// scrapeMetrics parses the un-labeled families of a Prometheus text
// exposition into name → value (labeled series keep their label string
// in the key, which is fine for delta arithmetic on exact series).
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		if v, perr := strconv.ParseFloat(line[sp+1:], 64); perr == nil {
			m[line[:sp]] = v
		}
	}
	return m, sc.Err()
}

// quantile returns the q-th latency quantile (nearest-rank) of lats.
func quantile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	i := int(q * float64(len(lats)-1))
	return lats[i]
}
