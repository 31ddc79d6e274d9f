package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"nutriprofile/internal/core"
	"nutriprofile/internal/server"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/usda/bake"
)

// TestSmokeEveryWorkload runs each workload for half a second
// against an in-process server on a loopback listener, verifies what it
// got back, replays a few of its items, and checks that the metrics it
// reports are exactly the ones BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "seed.img")
	if err := bake.WriteFile(img, usda.Seed(), nil); err != nil {
		t.Fatal(err)
	}
	ld, err := bake.LoadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewWithIndex(ld.DB, nil, serverOptions, ld.Index, img)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln, 5*time.Second) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	ref, err := referenceHandler(ld, img)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := genCorpus(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2eNames, layerNames := declaredMetrics(t)
	tg := target{addr: ln.Addr().String()}
	client := &http.Client{Timeout: 10 * time.Second}

	for _, w := range workloads {
		run := w.prepare(rs, 1)
		before, err := scrape(client, tg.addr)
		if err != nil {
			t.Fatal(err)
		}
		o, err := run(tg, 500*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		after, err := scrape(client, tg.addr)
		if err != nil {
			t.Fatal(err)
		}
		c := counters{before: before, after: after}
		checkCounts(o, c)
		if n, first := verify(ref, o.samples); n > 0 {
			t.Errorf("%s: %d sampled answers differ; first: %s", w.name, n, first)
		}
		if o.failed != 0 || len(o.problems) != 0 {
			t.Errorf("%s: %d failed: %q", w.name, o.failed, o.problems)
		}
		if o.attempted == 0 || o.throughput <= 0 || len(o.lat) == 0 || len(o.samples) == 0 {
			t.Errorf("%s: attempted %d, throughput %v, %d latencies, %d samples",
				w.name, o.attempted, o.throughput, len(o.lat), len(o.samples))
		}

		items, err := o.items()
		if err != nil || len(items) == 0 {
			t.Fatalf("%s: %d replay items, %v", w.name, len(items), err)
		}
		rr, err := replay(img, items[:min(len(items), 12)])
		if err != nil {
			t.Fatalf("%s replay: %v", w.name, err)
		}
		m := map[string]metric{}
		addMeasured(m, 0.01, o, c)
		addReplayed(m, o, c, rr)
		var e2e, layers []string
		for _, k := range names(m) {
			if endToEnd[k] {
				e2e = append(e2e, k)
			} else {
				layers = append(layers, k)
			}
		}
		if !slices.Equal(e2e, e2eNames) || !slices.Equal(layers, layerNames) {
			t.Errorf("%s: reports end-to-end %v and per-layer %v;\nBENCHMARK.json declares %v and %v",
				w.name, e2e, layers, e2eNames, layerNames)
		}
	}
}

func declaredMetrics(t *testing.T) (e2e, layers []string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range sp.PerLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	return e2e, layers
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
