// Command dbtool inspects and exports the composition tables: the SR
// seed, the FAO-style regional supplement, or a CSV file in the usda
// interchange format.
//
// Usage:
//
//	dbtool -list                         # every description, NDB order
//	dbtool -search "milk"                # matcher-ranked candidates
//	dbtool -show 1001                    # one food with weights
//	dbtool -stats                        # table statistics
//	dbtool -export seed.csv              # write the table as CSV
//	dbtool -db regional -list            # the regional table
//	dbtool -db merged -search "paneer"   # seed + regional
//	dbtool -import my.csv -stats         # load a custom table
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nutriprofile/internal/match"
	"nutriprofile/internal/report"
	"nutriprofile/internal/units"
	"nutriprofile/internal/usda"
)

func main() {
	dbName := flag.String("db", "seed", `table: "seed", "regional", or "merged"`)
	importPath := flag.String("import", "", "load the table from a CSV file instead")
	list := flag.Bool("list", false, "list every food description")
	search := flag.String("search", "", "rank matching descriptions for an ingredient name")
	show := flag.Int("show", 0, "print one food by NDB number")
	stats := flag.Bool("stats", false, "print table statistics")
	export := flag.String("export", "", "write the table as CSV to this file")
	flag.Parse()

	db, err := selectDB(*dbName, *importPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbtool: %v\n", err)
		os.Exit(1)
	}

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
		m := match.New(db, opts)
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
		printStats(db)
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

func selectDB(name, importPath string) (*usda.DB, error) {
	if importPath != "" {
		f, err := os.Open(importPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return usda.ReadCSV(f)
	}
	switch strings.ToLower(name) {
	case "seed":
		return usda.Seed(), nil
	case "regional":
		return usda.Regional(), nil
	case "merged":
		return usda.WithRegional(), nil
	default:
		return nil, fmt.Errorf("unknown table %q", name)
	}
}

func printStats(db *usda.DB) {
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
	fmt.Printf("foods:                %d\n", db.Len())
	fmt.Printf("weight rows:          %d (%.1f per food)\n", weights, float64(weights)/float64(db.Len()))
	fmt.Printf("unresolvable units:   %d weight rows\n", unresolvable)
	fmt.Printf("food groups (NDB/1000): %d\n", len(groups))
}
