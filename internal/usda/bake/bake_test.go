package bake

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"nutriprofile/internal/match"
	"nutriprofile/internal/usda"
)

// reseal recomputes the header's payload length and CRC after a payload
// mutation, so tests can reach the structural validators behind the
// checksum gate.
func reseal(img []byte) {
	binary.LittleEndian.PutUint64(img[8:], uint64(len(img)-headerSize))
	binary.LittleEndian.PutUint32(img[16:], crc32.Checksum(img[headerSize:], castagnoli))
}

func bakeSeed(t testing.TB) ([]byte, *usda.DB) {
	t.Helper()
	db := usda.Seed()
	img, err := BakeBytes(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	return img, db
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   *usda.DB
	}{
		{"seed", usda.Seed()},
		{"merged synthetic", usda.Merged(300, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img, err := BakeBytes(tc.db, nil)
			if err != nil {
				t.Fatal(err)
			}
			ld, err := Load(img)
			if err != nil {
				t.Fatal(err)
			}
			if ld.Bytes != len(img) {
				t.Fatalf("Bytes = %d, want %d", ld.Bytes, len(img))
			}

			// The database round-trips exactly: descriptions, nutrient
			// vectors, weight tables and the precomputed canonical units.
			if ld.DB.Len() != tc.db.Len() {
				t.Fatalf("Len = %d, want %d", ld.DB.Len(), tc.db.Len())
			}
			for i := 0; i < tc.db.Len(); i++ {
				got, want := ld.DB.At(i), tc.db.At(i)
				if g, w := got.Food(), want.Food(); !reflect.DeepEqual(g, w) {
					t.Fatalf("food %d differs:\n got %+v\nwant %+v", i, g, w)
				}
				for j := 0; j < want.NumWeights(); j++ {
					gn, gk := got.WeightUnit(j)
					wn, wk := want.WeightUnit(j)
					if gn != wn || gk != wk {
						t.Fatalf("food %d weight %d unit (%q,%v), want (%q,%v)", i, j, gn, gk, wn, wk)
					}
				}
				if r, ok := ld.DB.ByNDB(want.NDB()); !ok || r.Desc() != want.Desc() {
					t.Fatalf("ByNDB(%d) misses food %d", want.NDB(), i)
				}
			}

			// The index round-trips exactly against a fresh build.
			want := match.BuildIndex(tc.db)
			if !reflect.DeepEqual(ld.Index, want) {
				t.Fatal("loaded index differs from freshly built index")
			}

			// And a matcher adopting it scores identically to a fresh one.
			fresh := match.NewDefault(tc.db)
			adopted, err := match.NewFromIndex(ld.DB, match.DefaultOptions(), ld.Index)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []match.Query{
				{Name: "butter"}, {Name: "all-purpose flour"},
				{Name: "chicken breast", State: "raw"}, {Name: "no such thing"},
			} {
				a, aok := fresh.Match(q)
				b, bok := adopted.Match(q)
				if aok != bok || !reflect.DeepEqual(a, b) {
					t.Fatalf("query %+v: fresh (%+v,%v) vs adopted (%+v,%v)", q, a, aok, b, bok)
				}
			}
		})
	}
}

func TestWriteFileLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seed.img")
	db := usda.Seed()
	if err := WriteFile(path, db, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp file left behind")
	}
	ld, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ld.DB.Len() != db.Len() {
		t.Fatalf("Len = %d, want %d", ld.DB.Len(), db.Len())
	}
}

func TestLoadRejectsCorruptImages(t *testing.T) {
	img, _ := bakeSeed(t)
	cases := []struct {
		name     string
		mutate   func([]byte) []byte
		sentinel error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"short header", func(b []byte) []byte { return b[:headerSize-1] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], Version+1)
			return b
		}, ErrVersion},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, ErrTruncated},
		{"extended payload", func(b []byte) []byte { return append(b, 0, 0, 0) }, ErrTruncated},
		{"flipped payload bit", func(b []byte) []byte {
			b[headerSize+100] ^= 0x40
			return b
		}, ErrChecksum},
		{"flipped crc", func(b []byte) []byte {
			b[16] ^= 0xFF
			return b
		}, ErrChecksum},
		{"implausible count", func(b []byte) []byte {
			// counts[0] (food count) → absurd value, resealed so the CRC
			// passes and the structural check has to catch it.
			binary.LittleEndian.PutUint64(b[headerSize:], 1<<40)
			reseal(b)
			return b
		}, ErrCorrupt},
		{"count beyond payload", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[headerSize:], 1<<20)
			reseal(b)
			return b
		}, ErrTruncated},
		{"trailing garbage inside payload", func(b []byte) []byte {
			b = append(b, make([]byte, 16)...)
			reseal(b)
			return b
		}, ErrCorrupt},
		{"weight counts disagree", func(b []byte) []byte {
			// counts[1] (weight rows) bumped without adding rows.
			n := binary.LittleEndian.Uint64(b[headerSize+8:])
			binary.LittleEndian.PutUint64(b[headerSize+8:], n+1)
			reseal(b)
			return b
		}, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(tc.mutate(bytes.Clone(img)))
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want %v", err, tc.sentinel)
			}
		})
	}
}

// TestLoadRejectsSemanticCorruption flips index/DB content (not
// framing) and re-seals the checksum: the structural validators must
// reject what the CRC can no longer catch.
func TestLoadRejectsSemanticCorruption(t *testing.T) {
	img, _ := bakeSeed(t)

	// The foodNDB section starts right after the counts block. Zeroing
	// the first NDB violates usda.FromColumns' ascending-positive invariant.
	off := headerSize + countsLen*8
	bad := bytes.Clone(img)
	binary.LittleEndian.PutUint32(bad[off:], 0)
	reseal(bad)
	if _, err := Load(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zeroed NDB: err = %v, want %v", err, ErrCorrupt)
	}

	// Swapping the first two NDBs breaks ascending order.
	bad = bytes.Clone(img)
	a := binary.LittleEndian.Uint32(bad[off:])
	b := binary.LittleEndian.Uint32(bad[off+4:])
	binary.LittleEndian.PutUint32(bad[off:], b)
	binary.LittleEndian.PutUint32(bad[off+4:], a)
	reseal(bad)
	if _, err := Load(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("swapped NDBs: err = %v, want %v", err, ErrCorrupt)
	}
}

// TestLoadedIndexFailsMatcherValidationWhenTampered goes one layer up:
// a decoded-but-tampered index must be rejected by match.NewFromIndex
// rather than panic the matcher.
func TestLoadedIndexFailsMatcherValidationWhenTampered(t *testing.T) {
	img, _ := bakeSeed(t)
	ld, err := Load(img)
	if err != nil {
		t.Fatal(err)
	}
	idx := *ld.Index
	tampered := make([]uint32, len(idx.DocTerms))
	copy(tampered, idx.DocTerms)
	if len(tampered) == 0 {
		t.Skip("no doc terms")
	}
	tampered[0] = uint32(len(idx.Terms)) + 100 // out-of-range term ID
	idx.DocTerms = tampered
	if _, err := match.NewFromIndex(ld.DB, match.DefaultOptions(), &idx); !errors.Is(err, match.ErrBadIndex) {
		t.Fatalf("err = %v, want %v", err, match.ErrBadIndex)
	}
}

// TestLoadResidentSize pins what a loaded table costs: the image is its
// only resident copy. Load makes the same number of allocations at 1.2k
// and 8.2k foods, and a LoadFile'd table keeps at most the image's
// bytes, plus 8 B per food, plus 64 KiB live after a collection.
func TestLoadResidentSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	allocs := map[int]float64{}
	for _, extra := range []int{500, 7500} {
		db := usda.Merged(extra, 1)
		foods := db.Len()
		img, err := BakeBytes(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs[extra] = testing.AllocsPerRun(20, func() {
			if _, err := Load(img); err != nil {
				t.Fatal(err)
			}
		})
		path := filepath.Join(t.TempDir(), "db.img")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		size := len(img)
		db, img = nil, nil

		before := liveHeap()
		ld, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		retained := int(liveHeap()) - int(before)
		runtime.KeepAlive(ld)
		if limit := size + 8*foods + 64<<10; retained > limit {
			t.Errorf("%d foods: LoadFile retains %d B for a %d B image, want at most %d", foods, retained, size, limit)
		}
	}
	if allocs[500] != allocs[7500] {
		t.Errorf("Load allocates %v times at Merged(500) but %v at Merged(7500)", allocs[500], allocs[7500])
	}
}
