package main

// The four workloads. Each drives a server for a fixed time from
// pre-rendered inputs and reports what it measured end to end; which
// layers each one stresses, and why it exists, is tabulated in
// README.md.

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"
)

const (
	// serverWindow is nutriserve's default -batch-window: replayed bulk
	// items are windows of this many lines, as the server cut them.
	serverWindow = 64
	// sampleEvery keeps every 997th answer of each stream or loop for
	// byte-for-byte verification after the run.
	sampleEvery = 997
	// replayPhrases is the traced replay's work per workload, in
	// phrases: about three seconds on a 2-vCPU host.
	replayPhrases = 96000

	interactiveRate = 2000 // req/s of the interactive-zipf fixed-rate phase
	zipfS           = 1.1
	mixedRate       = 500 // req/s of the mixed workload's interactive loop
	sloP99          = 10 * time.Millisecond
	// The interactive-zipf capacity search: probes over [probeLo,
	// probeHi] req/s, each 4/25 of the run — 4 s at the 25 s runs
	// BENCHMARK.json fixes, so a probe at 1,000 req/s rests its p99 on
	// 40 samples beyond it.
	probeLo, probeHi = 1000, 16000
	probes           = 4
)

// target is the server a workload drives. pid 0 marks an in-process
// server, whose CPU time and memory cannot be told apart from the
// client's and are not read.
type target struct {
	addr string
	pid  int
}

func (t target) cpu() (time.Duration, error) {
	if t.pid == 0 {
		return 0, nil
	}
	return procCPU(t.pid)
}

func (t target) peakRSS() (float64, error) {
	if t.pid == 0 {
		return 0, nil
	}
	return procPeakRSS(t.pid)
}

// outcome is what one workload run measured end to end.
type outcome struct {
	throughput float64       // the workload's headline rate, per second
	sloRate    float64       // interactive-zipf: highest probed rate meeting the SLO
	lat        []float64     // ms to answer one recipe: the latency metric's samples
	late       []float64     // ms from due time to send (open loops)
	cpu        time.Duration // server CPU over the stretch throughput measures
	windowOps  int           // operations the CPU time is divided by
	// rss is the server's peak resident set in MB at the end of the
	// stretch run at a fixed load. interactive-zipf reads it before its
	// capacity search, whose overload probes go higher on a faster
	// server and would make its peak memory read worse.
	rss       float64
	attempted int // every operation the run sent
	failed    int
	lines     int // recipe lines sent on bulk streams
	samples   []sample
	problems  []string
	// items lists the run's inputs in the order it sent them, for the
	// traced replay; built only when a replay runs.
	items func() ([]item, error)
}

func (o *outcome) problem(failed int, format string, args ...any) {
	o.failed += failed
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) addBulk(r bulkRun) {
	o.attempted += r.sent
	o.lines += r.sent
	o.failed += r.errLines + r.badLines
	o.lat = append(o.lat, r.lat...)
	o.samples = append(o.samples, r.samples...)
	if r.errLines+r.badLines > 0 {
		o.problems = append(o.problems, fmt.Sprintf("bulk stream: %d error lines, %d malformed lines", r.errLines, r.badLines))
	}
	if missing := r.sent - r.recv; missing > 0 {
		o.problem(missing, "bulk stream: %d of %d lines unanswered", missing, r.sent)
	}
	if r.err != nil {
		o.problem(1, "bulk stream: %v", r.err)
	}
}

func (o *outcome) addPhase(p phase) {
	l := summarise(p.lat)
	log.Printf("open loop %5.0f req/s for %v: %d sent, %d answered in window, p50 %.3f ms, p99 %.3f ms, send lateness p99 %.3f ms",
		p.rate, p.dur, p.sent, p.inWindow, l.p50, l.p99, summarise(p.late).p99)
	o.attempted += p.sent
	o.samples = append(o.samples, p.samples...)
	if p.failed > 0 {
		o.problem(p.failed, "open loop at %.0f req/s: %d of %d requests failed", p.rate, p.failed, p.sent)
	}
	if p.err != nil {
		o.problems = append(o.problems, fmt.Sprintf("open loop at %.0f req/s: %v", p.rate, p.err))
	}
}

// runner drives a server for d with inputs rendered beforehand.
type runner func(t target, d time.Duration) (*outcome, error)

// workload is one traffic mix; BENCHMARK.json and README.md say why
// each exists.
type workload struct {
	name string
	// prepare renders the workload's inputs from the corpus and returns
	// the run that sends them; the corpus is not needed afterwards, so
	// the client measures with a heap of plain bytes, cheap to collect.
	prepare func(rs []recipe, seed int64) runner
}

var workloads = []workload{
	{"bulk-paper", func(rs []recipe, _ int64) runner { return bulkRunner(newStreams(rs, 2, false), false) }},
	{"bulk-cold", func(rs []recipe, _ int64) runner { return bulkRunner(newStreams(rs, 2, true), true) }},
	{"interactive-zipf", func(rs []recipe, seed int64) runner {
		rng := rand.New(rand.NewSource(seed))
		return interactiveRunner(newPool(rs, 1<<16, rng, zipfPick(rs, zipfS, rng)))
	}},
	{"mixed", func(rs []recipe, seed int64) runner {
		rng := rand.New(rand.NewSource(seed))
		return mixedRunner(newStreams(rs, 1, false)[0], newPool(rs, 1<<14, rng, uniformPick(rs, rng)))
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bulkRunner streams ss, one /v1/batch stream each. Salted streams give
// every phrase a token no earlier pass used.
func bulkRunner(ss []*stream, salted bool) runner {
	return func(t target, d time.Duration) (*outcome, error) {
		conns := make([]*bulkConn, len(ss))
		for k := range ss {
			c, err := openBulk(t.addr)
			if err != nil {
				for _, c := range conns[:k] {
					c.c.Close()
				}
				return nil, err
			}
			conns[k] = c
		}
		o := &outcome{}
		cpu0, err := t.cpu()
		if err != nil {
			return nil, err
		}
		end := time.Now().Add(d)
		runs := make([]bulkRun, len(ss))
		var wg sync.WaitGroup
		for k := range ss {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				runs[k] = conns[k].drive(ss[k], salted, end)
			}(k)
		}
		time.Sleep(time.Until(end))
		cpu1, cerr := t.cpu()
		wg.Wait()
		if cerr != nil {
			return nil, cerr
		}
		if o.rss, err = t.peakRSS(); err != nil {
			return nil, err
		}
		for _, r := range runs {
			o.addBulk(r)
			o.windowOps += r.inWindow
		}
		o.throughput = float64(o.windowOps) / d.Seconds()
		o.cpu = cpu1 - cpu0
		o.items = func() ([]item, error) {
			if salted {
				for _, s := range ss {
					s.setPass(0, s.lines(), 0) // replay the first pass, as sent
				}
			}
			return interleave(ss, nil, 0)
		}
		return o, nil
	}
}

// interactiveRunner warms the server for 1/25 of d at the fixed rate,
// then measures recipe latency, completions and CPU per request for
// 8/25 of d at that rate, and spends the rest on a fixed-probe search
// for the highest rate that meets the SLO.
func interactiveRunner(p *pool) runner {
	return func(t target, d time.Duration) (*outcome, error) {
		loop, err := dialLoop(t.addr, p, 2)
		if err != nil {
			return nil, err
		}
		defer loop.close()
		o := &outcome{}
		o.addPhase(loop.run(interactiveRate, d/25))
		cpu0, err := t.cpu()
		if err != nil {
			return nil, err
		}
		fixed := loop.run(interactiveRate, d*8/25)
		cpu1, err := t.cpu()
		if err != nil {
			return nil, err
		}
		if o.rss, err = t.peakRSS(); err != nil {
			return nil, err
		}
		o.addPhase(fixed)
		o.lat, o.late = fixed.recipe, fixed.late
		o.windowOps, o.cpu = fixed.ok, cpu1-cpu0
		o.throughput = float64(fixed.inWindow) / fixed.dur.Seconds()

		o.sloRate = bisect(probeLo, probeHi, probes, func(rate float64) bool {
			ph := loop.run(rate, d*4/25)
			o.addPhase(ph)
			return ph.passes()
		})
		o.items = func() ([]item, error) { return interleave(nil, p, 1) }
		return o, nil
	}
}

// mixedRunner runs one warm bulk stream and a uniform-popularity open
// loop side by side for d.
func mixedRunner(s *stream, p *pool) runner {
	return func(t target, d time.Duration) (*outcome, error) {
		bc, err := openBulk(t.addr)
		if err != nil {
			return nil, err
		}
		loop, err := dialLoop(t.addr, p, 1)
		if err != nil {
			bc.c.Close()
			return nil, err
		}
		defer loop.close()
		o := &outcome{}
		cpu0, err := t.cpu()
		if err != nil {
			bc.c.Close()
			return nil, err
		}
		end := time.Now().Add(d)
		var (
			br bulkRun
			ph phase
			wg sync.WaitGroup
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			br = bc.drive(s, false, end)
		}()
		go func() {
			defer wg.Done()
			ph = loop.run(mixedRate, d)
		}()
		time.Sleep(time.Until(end))
		cpu1, cerr := t.cpu()
		wg.Wait()
		if cerr != nil {
			return nil, cerr
		}
		if o.rss, err = t.peakRSS(); err != nil {
			return nil, err
		}
		o.addBulk(br)
		o.addPhase(ph)
		o.lat, o.late = ph.recipe, ph.late
		o.throughput = float64(br.inWindow) / d.Seconds()
		o.windowOps = br.inWindow + ph.inWindow
		o.cpu = cpu1 - cpu0
		perRound := ratio(float64(ph.sent), float64(br.sent)/serverWindow)
		o.items = func() ([]item, error) { return interleave([]*stream{s}, p, perRound) }
		return o, nil
	}
}

// interleave lists replay items in the order a run sent them, until
// they hold replayPhrases phrases. Each round takes the next
// serverWindow-line window of every stream, then perRound pool requests
// on average.
func interleave(ss []*stream, p *pool, perRound float64) ([]item, error) {
	var (
		items   []item
		phrases int
		next    int // next pool request
		owed    float64
	)
	add := func(it item, err error) error {
		if err != nil {
			return err
		}
		items = append(items, it)
		phrases += len(it.phrases)
		return nil
	}
	for from := 0; phrases < replayPhrases; from += serverWindow {
		progressed := false
		for _, s := range ss {
			if from < s.lines() {
				if err := add(windowItem(s, from, min(from+serverWindow, s.lines()))); err != nil {
					return nil, err
				}
				progressed = true
			}
		}
		for owed += perRound; owed >= 1 && p != nil && next < p.size(); owed-- {
			if err := add(requestItem(p, next)); err != nil {
				return nil, err
			}
			next++
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return items, nil
}
