// Command dbbake compiles a composition table into the baked image that
// nutriserve loads with -db and hot-swaps via POST /admin/reload. Baking
// moves all parsing and index construction offline: the serving process
// decodes an image with a single read and a handful of slice casts
// (~30× faster than parse-and-index, near-zero allocations) and the
// CRC-32C seal means a truncated or bit-flipped image is rejected
// before it can reach the estimator.
//
// Sources, mutually exclusive:
//
//	dbbake -o seed.img                        # built-in SR seed table (default)
//	dbbake -o full.img -sr /data/sr26         # genuine USDA SR26 ASCII release
//	                                          # (FOOD_DES.txt, NUT_DATA.txt, WEIGHT.txt)
//	dbbake -o reg.img -regional               # seed + FAO-style regional supplement
//	dbbake -o big.img -synth 7500             # seed + N synthetic foods (benchmarks)
//
// Inspection:
//
//	dbbake -info seed.img                     # decode and print image statistics
package main

import (
	"flag"
	"fmt"
	"os"

	"nutriprofile/internal/usda"
	"nutriprofile/internal/usda/bake"
	"nutriprofile/internal/usda/sr"
)

func main() {
	out := flag.String("o", "", "output image path (atomic write via rename)")
	srDir := flag.String("sr", "", "parse a USDA SR26 ASCII release from this directory")
	regional := flag.Bool("regional", false, "bake the merged SR+regional table")
	synth := flag.Int("synth", 0, "append N synthetic foods to the seed (load testing)")
	synthSeed := flag.Int64("synth-seed", 1, "RNG seed for -synth")
	info := flag.String("info", "", "decode an existing image and print its statistics")
	flag.Parse()

	if err := run(*out, *srDir, *regional, *synth, *synthSeed, *info); err != nil {
		fmt.Fprintf(os.Stderr, "dbbake: %v\n", err)
		os.Exit(1)
	}
}

func run(out, srDir string, regional bool, synth int, synthSeed int64, info string) error {
	if info != "" {
		if out != "" || srDir != "" || regional || synth != 0 {
			return fmt.Errorf("-info does not combine with bake flags")
		}
		return printInfo(info)
	}
	if out == "" {
		return fmt.Errorf("no output: use -o IMAGE (or -info IMAGE to inspect)")
	}
	nSources := 0
	for _, on := range []bool{srDir != "", regional, synth != 0} {
		if on {
			nSources++
		}
	}
	if nSources > 1 {
		return fmt.Errorf("-sr, -regional and -synth are mutually exclusive")
	}

	var db *usda.DB
	switch {
	case srDir != "":
		parsed, rep, err := sr.ParseDir(srDir)
		if err != nil {
			return err
		}
		db = parsed
		fmt.Printf("parsed %s: %d foods, %d nutrient rows (%d untracked), %d weights (%d skipped)\n",
			srDir, rep.Foods, rep.NutrientRows, rep.UnknownNutrients, rep.WeightRows, rep.SkippedWeights)
	case regional:
		db = usda.WithRegional()
	case synth != 0:
		if synth < 0 {
			return fmt.Errorf("-synth must be non-negative, got %d", synth)
		}
		db = usda.Merged(synth, synthSeed)
	default:
		db = usda.Seed()
	}

	if err := bake.WriteFile(out, db, nil); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("baked %s: %d foods, %d bytes\n", out, db.Len(), st.Size())
	return nil
}

func printInfo(path string) error {
	ld, err := bake.LoadFile(path)
	if err != nil {
		return err
	}
	weights := 0
	for i := 0; i < ld.DB.Len(); i++ {
		weights += ld.DB.At(i).NumWeights()
	}
	fmt.Printf("image:   %s\n", path)
	fmt.Printf("bytes:   %d\n", ld.Bytes)
	fmt.Printf("crc32c:  %08x\n", ld.CRC)
	fmt.Printf("foods:   %d\n", ld.DB.Len())
	fmt.Printf("weights: %d\n", weights)
	fmt.Printf("terms:   %d\n", len(ld.Index.Terms))
	return nil
}
