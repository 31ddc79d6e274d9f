// Command dbtool inspects and exports a composition table. -db names
// the table as every CLI does (bake.Open): seed (the default),
// regional (seed + FAO supplement), fao (the supplement alone),
// synth:N, sr:DIR, csv:FILE, or a baked image path.
//
// Usage:
//
//	dbtool -list                           # every description, NDB order
//	dbtool -search "milk"                  # matcher-ranked candidates
//	dbtool -show 1001                      # one food with weights
//	dbtool -stats                          # table statistics
//	dbtool -export seed.csv                # write the table as CSV
//	dbtool -db fao -list                   # the regional supplement alone
//	dbtool -db regional -search "paneer"   # seed + supplement
//	dbtool -db csv:my.csv -stats           # a custom table
//	dbtool -db seed.img -stats             # an image's bytes, CRC and terms too
package main

import (
	"flag"
	"fmt"
	"os"

	"nutriprofile/internal/match"
	"nutriprofile/internal/report"
	"nutriprofile/internal/units"
	"nutriprofile/internal/usda/bake"
)

func main() {
	dbSpec := flag.String("db", "seed", "food table: seed, regional (seed + FAO supplement), fao, synth:N, sr:DIR, csv:FILE, or a baked image path")
	list := flag.Bool("list", false, "list every food description")
	search := flag.String("search", "", "rank matching descriptions for an ingredient name")
	show := flag.Int("show", 0, "print one food by NDB number")
	stats := flag.Bool("stats", false, "print table statistics")
	export := flag.String("export", "", "write the table as CSV to this file")
	flag.Parse()

	ld, err := bake.Open(*dbSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbtool: %v\n", err)
		os.Exit(1)
	}
	db := ld.DB

	ran := false
	if *list {
		ran = true
		for i := 0; i < db.Len(); i++ {
			f := db.At(i)
			fmt.Printf("%6d  %s\n", f.NDB(), f.Desc())
		}
	}
	if *search != "" {
		ran = true
		opts := match.DefaultOptions()
		opts.ExplainMatched = true // explain output: show the matched words
		m, err := match.NewFromIndex(db, opts, ld.Index)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbtool: %v\n", err)
			os.Exit(1)
		}
		results := m.Rank(match.Query{Name: *search}, 10)
		if len(results) == 0 {
			fmt.Printf("no match for %q\n", *search)
		}
		for _, r := range results {
			bonus := ""
			if r.RawBonus {
				bonus = " +raw"
			}
			fmt.Printf("J*=%.3f prio=%-3d%-5s %6d  %-60s matched=%v\n",
				r.Score, r.Priority, bonus, r.NDB, r.Desc, r.Matched)
		}
	}
	if *show != 0 {
		ran = true
		row, ok := db.ByNDB(*show)
		if !ok {
			fmt.Fprintf(os.Stderr, "dbtool: NDB %d not found\n", *show)
			os.Exit(1)
		}
		f := row.Food()
		fmt.Printf("%d — %s\n\nPer 100 g:\n%s\n", f.NDB, f.Desc, f.Per100g.Table())
		if len(f.Weights) > 0 {
			tb := report.NewTable("seq", "amount", "unit", "grams", "g/1")
			for _, w := range f.Weights {
				tb.AddRow(fmt.Sprint(w.Seq), report.F2(w.Amount), w.Unit,
					report.F2(w.Grams), report.F2(w.GramsPerOne()))
			}
			fmt.Println("Weights:")
			fmt.Print(tb.String())
		}
	}
	if *stats {
		ran = true
		printStats(ld)
	}
	if *export != "" {
		ran = true
		f, err := os.Create(*export)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbtool: %v\n", err)
			os.Exit(1)
		}
		if err := db.WriteCSV(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "dbtool: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dbtool: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dbtool: wrote %d foods to %s\n", db.Len(), *export)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// printStats prints the table's statistics and its index's vocabulary,
// and for a baked image the image's size and checksum.
func printStats(ld *bake.Loaded) {
	db := ld.DB
	groups := map[int]int{}
	weights, unresolvable := 0, 0
	for i := 0; i < db.Len(); i++ {
		f := db.At(i)
		groups[f.NDB()/1000]++
		weights += f.NumWeights()
		for j := 0; j < f.NumWeights(); j++ {
			if _, known := units.Normalize(f.Weight(j).Unit); !known {
				unresolvable++
			}
		}
	}
	if ld.Bytes > 0 {
		fmt.Printf("image bytes:          %d\n", ld.Bytes)
		fmt.Printf("image crc32c:         %08x\n", ld.CRC)
	}
	fmt.Printf("foods:                %d\n", db.Len())
	fmt.Printf("weight rows:          %d (%.1f per food)\n", weights, float64(weights)/float64(db.Len()))
	fmt.Printf("unresolvable units:   %d weight rows\n", unresolvable)
	fmt.Printf("food groups (NDB/1000): %d\n", len(groups))
	fmt.Printf("index terms:          %d\n", len(ld.Index.Terms))
}
