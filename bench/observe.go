package main

// What the benchmark reads from the server besides its answers: the
// process's CPU time and peak RSS from /proc, and counter snapshots from
// GET /metrics and GET /v1/stats. Counters are read before and after a
// run and only their deltas are used, so nothing the server did before
// the run leaks into its numbers.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user plus system CPU time pid has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces and parentheses; the
	// fixed fields start after its closing parenthesis with field 3.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	var ticks int64
	for _, s := range f[11:13] { // utime, stime: fields 14 and 15
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procPeakRSS returns pid's peak resident set size (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// parseProm reads a Prometheus text exposition into series → value. A
// labelled series keeps its label set in the key, exactly as rendered
// (`nutriserve_memo_hits_total{cache="phrase"}`), which is all delta
// arithmetic on known series needs.
func parseProm(r io.Reader) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:sp]] = v
	}
	return m, sc.Err()
}

// serverStats is the part of GET /v1/stats the benchmark reads. It is
// declared here rather than taken from the server package so a change
// to the stats body's Go types does not change what the benchmark
// compiles against; a field that disappears reads as 0.
type serverStats struct {
	Flight struct {
		Leads     float64 `json:"leads"`
		Coalesced float64 `json:"coalesced"`
	} `json:"flight"`
	Shard struct {
		Phrases float64 `json:"phrases"`
		L1Hits  float64 `json:"l1_hits"`
	} `json:"shard"`
	Runtime struct {
		TotalAllocBytes float64 `json:"total_alloc_bytes"`
		NumGC           float64 `json:"num_gc"`
	} `json:"runtime"`
}

// snapshot is one read of both counter surfaces.
type snapshot struct {
	prom  map[string]float64
	stats serverStats
}

func scrape(client *http.Client, addr string) (snapshot, error) {
	var s snapshot
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return s, err
	}
	s.prom, err = parseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, fmt.Errorf("/metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	resp, err = client.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s.stats); err != nil {
		return s, fmt.Errorf("/v1/stats: %w", err)
	}
	return s, nil
}

// counters are the run's counter deltas, after minus before.
type counters struct {
	before, after snapshot
}

func (c counters) prom(series string) float64 { return c.after.prom[series] - c.before.prom[series] }

func (c counters) memo(family, cache string) float64 {
	return c.prom(family + `{cache="` + cache + `"}`)
}

func (c counters) route(family, route string) float64 {
	return c.prom(family + `{route="` + route + `"}`)
}

// ratio is num/den, or 0 when the run did no such work (den == 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
