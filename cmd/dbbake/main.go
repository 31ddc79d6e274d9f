// Command dbbake compiles a composition table into the baked image that
// nutriserve loads with -db and hot-swaps via POST /admin/reload. Baking
// moves all parsing and index construction offline: the serving process
// decodes an image with a single read and a handful of slice casts
// (~30× faster than parse-and-index, near-zero allocations) and the
// CRC-32C seal means a truncated or bit-flipped image is rejected
// before it can reach the estimator.
//
// -db names the table as every CLI does (bake.Open):
//
//	dbbake -o seed.img                        # built-in SR seed table (default)
//	dbbake -o full.img -db sr:/data/sr26      # genuine USDA SR26 ASCII release
//	                                          # (FOOD_DES.txt, NUT_DATA.txt, WEIGHT.txt)
//	dbbake -o reg.img -db regional            # seed + FAO-style regional supplement
//	dbbake -o big.img -db synth:7500          # seed + N synthetic foods (benchmarks)
//	dbbake -o my.img -db csv:my.csv           # a table in the usda CSV format
//
// `dbtool -db IMAGE -stats` inspects an image.
package main

import (
	"flag"
	"fmt"
	"os"

	"nutriprofile/internal/usda/bake"
)

func main() {
	out := flag.String("o", "", "output image path (atomic write via rename)")
	dbSpec := flag.String("db", "seed", "food table: seed, regional (seed + FAO supplement), fao, synth:N, sr:DIR, csv:FILE, or a baked image path")
	flag.Parse()

	if err := run(*out, *dbSpec); err != nil {
		fmt.Fprintf(os.Stderr, "dbbake: %v\n", err)
		os.Exit(1)
	}
}

func run(out, dbSpec string) error {
	if out == "" {
		return fmt.Errorf("no output: use -o IMAGE (dbtool -db IMAGE -stats inspects one)")
	}
	ld, err := bake.Open(dbSpec)
	if err != nil {
		return err
	}
	if rep := ld.SR; rep != nil {
		fmt.Printf("parsed %s: %d foods, %d nutrient rows (%d untracked), %d weights (%d skipped)\n",
			dbSpec, rep.Foods, rep.NutrientRows, rep.UnknownNutrients, rep.WeightRows, rep.SkippedWeights)
	}
	if err := bake.WriteFile(out, ld.DB, ld.Index); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("baked %s: %d foods, %d bytes\n", out, ld.DB.Len(), st.Size())
	return nil
}
