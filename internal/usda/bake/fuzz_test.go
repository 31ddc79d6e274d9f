package bake

import (
	"bytes"
	"errors"
	"testing"

	"nutriprofile/internal/match"
	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/usda"
)

// FuzzLoad enforces the loader contract: arbitrary bytes — including
// bit-flipped, truncated and re-sealed valid images — never panic, and
// every failure wraps exactly one of the load sentinels. The checksum
// stops almost every mutation, so each input is also loaded with its
// header resealed (payload length and CRC recomputed), which carries
// the mutation to the section and column checks. On every image Load
// accepts, every accessor of every row and one match must run without
// a panic: those checks are all that guard the accessors.
func FuzzLoad(f *testing.F) {
	img, err := BakeBytes(usda.Seed(), nil)
	if err != nil {
		f.Fatal(err)
	}
	tiny, err := BakeBytes(usda.MustNewDB([]usda.Food{
		{NDB: 1001, Desc: "Butter, salted", Per100g: nutrition.Profile{EnergyKcal: 717},
			Weights: []usda.Weight{{Seq: 1, Amount: 1, Unit: "pat", Grams: 5}, {Seq: 2, Amount: 1, Unit: "cup", Grams: 227}}},
		{NDB: 1123, Desc: "Egg, whole, raw, fresh", Per100g: nutrition.Profile{EnergyKcal: 143},
			Weights: []usda.Weight{{Seq: 1, Amount: 1, Unit: "large", Grams: 50}}},
		{NDB: 2047, Desc: "Salt, table"},
	}), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(tiny)
	f.Add(img[:headerSize])
	f.Add([]byte("NPBK"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		loadAndExercise(t, data)
		if len(data) >= headerSize {
			sealed := bytes.Clone(data)
			reseal(sealed)
			loadAndExercise(t, sealed)
		}
	})
}

// loadAndExercise loads data and, when Load accepts it, reads every
// row through every accessor and runs one match on its index.
func loadAndExercise(t *testing.T, data []byte) {
	ld, err := Load(data)
	if err != nil {
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) &&
			!errors.Is(err, ErrCorrupt) {
			t.Fatalf("unstructured error: %v", err)
		}
		return
	}
	if ld == nil || ld.DB == nil || ld.Index == nil {
		t.Fatal("nil Loaded fields without error")
	}
	db := ld.DB
	for i := 0; i < db.Len(); i++ {
		r := db.At(i)
		_, _ = r.Desc(), *r.Per100g()
		for j := 0; j < r.NumWeights(); j++ {
			_ = r.Weight(j)
			_, _ = r.WeightUnit(j)
		}
		_, _ = r.GramsForUnit("cup")
		_ = r.Food()
		if got, ok := db.ByNDB(r.NDB()); !ok || got != r {
			t.Fatalf("ByNDB(%d) does not find row %d", r.NDB(), i)
		}
	}
	m, err := match.NewFromIndex(db, match.DefaultOptions(), ld.Index)
	if err != nil {
		if !errors.Is(err, match.ErrBadIndex) {
			t.Fatalf("unstructured index error: %v", err)
		}
		return
	}
	m.Match(match.Query{Name: "butter", State: "salted"})
}
