package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nutriprofile/internal/core"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/usda/bake"
)

// bakeImage writes a baked image of db into a temp dir and returns its path.
func bakeImage(t *testing.T, name string, db *usda.DB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := bake.WriteFile(path, db, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

// postReload issues POST /admin/reload from the given peer address.
func postReload(t *testing.T, h http.Handler, remoteAddr, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/admin/reload", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.RemoteAddr = remoteAddr
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestReloadDisabledByDefault(t *testing.T) {
	s := newTestServer(t, nil)
	w := postReload(t, s.Handler(), "127.0.0.1:1234", `{"path":"x"}`)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when EnableReload is unset", w.Code)
	}
}

func TestReloadRefusesNonLoopback(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.EnableReload = true })
	h := s.Handler()
	for _, addr := range []string{"192.0.2.1:1234", "10.0.0.8:99", "not-an-addr", ""} {
		w := postReload(t, h, addr, `{"path":"x"}`)
		if w.Code != http.StatusForbidden {
			t.Fatalf("peer %q: status %d, want 403", addr, w.Code)
		}
		if eb := decodeErrorBody(t, w); eb.Error.Code != "forbidden" {
			t.Fatalf("peer %q: code %q", addr, eb.Error.Code)
		}
	}
	// IPv6 loopback is a loopback.
	img := bakeImage(t, "v6.img", usda.Seed())
	w := postReload(t, h, "[::1]:5555", fmt.Sprintf(`{"path":%q}`, img))
	if w.Code != http.StatusOK {
		t.Fatalf("::1 peer: status %d body %s", w.Code, w.Body)
	}
}

func TestReloadBadRequests(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.EnableReload = true })
	h := s.Handler()
	cases := []struct {
		name, body, code string
	}{
		{"malformed json", `{"path":`, "bad_json"},
		{"unknown field", `{"path":"x","extra":1}`, "bad_json"},
		{"empty path", `{}`, "bad_request"},
		{"missing image", `{"path":"/nonexistent/db.img"}`, "bad_image"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postReload(t, h, "127.0.0.1:1", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", w.Code)
			}
			if eb := decodeErrorBody(t, w); eb.Error.Code != tc.code {
				t.Fatalf("code %q, want %q", eb.Error.Code, tc.code)
			}
		})
	}
}

func TestReloadRejectsCorruptImageAndKeepsServing(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.EnableReload = true })
	h := s.Handler()
	bad := filepath.Join(t.TempDir(), "bad.img")
	if err := os.WriteFile(bad, []byte("NPBKgarbage-not-an-image"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := postReload(t, h, "127.0.0.1:1", fmt.Sprintf(`{"path":%q}`, bad))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if eb := decodeErrorBody(t, w); eb.Error.Code != "bad_image" {
		t.Fatalf("code %q, want bad_image", eb.Error.Code)
	}
	// The old snapshot still serves.
	if w := postJSON(t, h, "/v1/estimate", `{"phrase":"1 cup butter"}`); w.Code != http.StatusOK {
		t.Fatalf("estimate after failed reload: status %d", w.Code)
	}
	if got := s.est.SnapshotStats().Version; got != 1 {
		t.Fatalf("failed reload moved version to %d", got)
	}
}

func TestReloadSwapsDatabase(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.EnableReload = true })
	h := s.Handler()

	// Baseline estimate against the boot DB.
	w := postJSON(t, h, "/v1/estimate", `{"phrase":"1 cup butter"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("estimate: %d", w.Code)
	}
	var before EstimateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}

	// Swap in a doubled-nutrient database.
	seed := usda.Seed()
	foods := make([]usda.Food, seed.Len())
	for i := range foods {
		f := seed.At(i).Food()
		f.Per100g = f.Per100g.Scale(2)
		foods[i] = f
	}
	db2, err := usda.NewDB(foods)
	if err != nil {
		t.Fatal(err)
	}
	img := bakeImage(t, "v2.img", db2)

	w = postReload(t, h, "127.0.0.1:1", fmt.Sprintf(`{"path":%q}`, img))
	if w.Code != http.StatusOK {
		t.Fatalf("reload: status %d body %s", w.Code, w.Body)
	}
	var st core.SnapshotStats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || st.Foods != db2.Len() || st.Source != img {
		t.Fatalf("reload response %+v", st)
	}

	// Estimates now resolve against the new DB (and the caches were purged).
	w = postJSON(t, h, "/v1/estimate", `{"phrase":"1 cup butter"}`)
	var after EstimateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Profile.EnergyKcal != 2*before.Profile.EnergyKcal {
		t.Fatalf("post-reload energy %v, want doubled %v", after.Profile.EnergyKcal, 2*before.Profile.EnergyKcal)
	}

	// /v1/stats reports the new snapshot.
	var stats StatsResponse
	if err := json.Unmarshal(getPath(t, h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.DB.Version != 2 || stats.DB.Source != img {
		t.Fatalf("stats db = %+v", stats.DB)
	}
}

// TestReloadUnderConcurrentTraffic hammers /v1/estimate while reloading
// repeatedly: no request may fail, and every profile must be the pure
// old-DB or pure new-DB answer.
func TestReloadUnderConcurrentTraffic(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.EnableReload = true
		c.MaxInFlight = 256
	})
	h := s.Handler()

	seed := usda.Seed()
	foods := make([]usda.Food, seed.Len())
	for i := range foods {
		f := seed.At(i).Food()
		f.Per100g = f.Per100g.Scale(3)
		foods[i] = f
	}
	db2, err := usda.NewDB(foods)
	if err != nil {
		t.Fatal(err)
	}
	imgA := bakeImage(t, "a.img", seed)
	imgB := bakeImage(t, "b.img", db2)

	// Reference answers: serve once against each database (computing
	// 3*wantA here instead would differ in the last float bit — scaling
	// before vs after the grams conversion is not associative).
	serveEnergy := func() float64 {
		var r EstimateResponse
		w := postJSON(t, h, "/v1/estimate", `{"phrase":"1 cup butter"}`)
		if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		return r.Profile.EnergyKcal
	}
	wantA := serveEnergy()
	if w := postReload(t, h, "127.0.0.1:1", fmt.Sprintf(`{"path":%q}`, imgB)); w.Code != http.StatusOK {
		t.Fatalf("priming reload: %d %s", w.Code, w.Body)
	}
	wantB := serveEnergy()
	if w := postReload(t, h, "127.0.0.1:1", fmt.Sprintf(`{"path":%q}`, imgA)); w.Code != http.StatusOK {
		t.Fatalf("priming reload: %d %s", w.Code, w.Body)
	}
	if wantA == wantB {
		t.Fatal("reference profiles identical; test cannot distinguish databases")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := postJSON(t, h, "/v1/estimate", `{"phrase":"1 cup butter"}`)
				if w.Code != http.StatusOK {
					t.Errorf("estimate failed mid-reload: %d %s", w.Code, w.Body)
					return
				}
				var r EstimateResponse
				if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
					t.Errorf("bad body: %v", err)
					return
				}
				if got := r.Profile.EnergyKcal; got != wantA && got != wantB {
					t.Errorf("torn profile: energy %v, want %v or %v", got, wantA, wantB)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		img := imgA
		if i%2 == 0 {
			img = imgB
		}
		if w := postReload(t, h, "127.0.0.1:1", fmt.Sprintf(`{"path":%q}`, img)); w.Code != http.StatusOK {
			t.Fatalf("reload %d: %d %s", i, w.Code, w.Body)
		}
	}
	close(stop)
	wg.Wait()

	// Boot snapshot + 2 priming reloads + 20 storm reloads.
	if got := s.est.SnapshotStats().Version; got != 23 {
		t.Fatalf("version %d after 22 reloads, want 23", got)
	}
}
