package server

import (
	"bytes"
	"os"
	"testing"

	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
)

// TestScrapeFamiliesGolden pins the exact /metrics bytes of the
// scrape-time families — the memo caches' and the matcher's — on fixed
// snapshots. The exposition tests parse values only; this one holds
// HELP and TYPE text, family order, label rendering and float format
// byte for byte. The values span the shortest-'g' format's switch to
// exponent notation and a fractional hit ratio. Regenerate with
//
//	go test ./internal/server/ -run TestScrapeFamiliesGolden -update
func TestScrapeFamiliesGolden(t *testing.T) {
	phrase := memo.Stats{
		Hits: 1234567, Misses: 89, Evictions: 1 << 53, Rejections: 42,
		Entries: 8192, Capacity: 8192, Shards: 64, Policy: "tinylfu",
	}
	matchStats := memo.Stats{Hits: 1, Misses: 2, Entries: 1e6}
	ms := match.MatcherStats{
		Docs: 8214, VocabSize: 5120, PostingLists: 5120, PostingEntries: 123456789012,
		PoolGets: 12345678901234567890, PoolMisses: 0,
		PruneTermsSkipped: 11, PrunePostingsAvoided: 1e15, PruneDocsDropped: 999999,
		PruneGatherExits: 6,
	}
	var got bytes.Buffer
	if err := writeMemoMetrics(&got, phrase, matchStats); err != nil {
		t.Fatal(err)
	}
	if err := writeMatchMetrics(&got, ms); err != nil {
		t.Fatal(err)
	}

	const path = "testdata/scrape_families.txt"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("scrape families diverge from %s\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
