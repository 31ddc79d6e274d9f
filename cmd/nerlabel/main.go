// Command nerlabel tags ingredient phrases with the paper's entity
// inventory (NAME, STATE, UNIT, QUANTITY, TEMP, DF, SIZE) and prints a
// Table I style extraction for each.
//
// Usage:
//
//	nerlabel "1/2 lb lean ground beef" "1 small onion , finely chopped"
//	nerlabel -model trained -corpus 2000 "2 cups flour"   # perceptron
//	echo "1 tablespoon fresh dill weed" | nerlabel -tokens
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"nutriprofile/internal/ner"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/report"
	"nutriprofile/internal/textutil"
)

func main() {
	model := flag.String("model", "rules", `tagger: "rules" (baseline), "trained" (averaged perceptron) or "crf"`)
	corpusN := flag.Int("corpus", 1000, "training-corpus recipes when -model trained")
	seed := flag.Int64("seed", 1, "corpus/training seed")
	tokens := flag.Bool("tokens", false, "print per-token labels instead of the Table I layout")
	saveTo := flag.String("save", "", "after training, save the model to this file")
	loadFrom := flag.String("load", "", "load a previously saved model instead of training")
	flag.Parse()

	var tagger ner.Tagger
	switch {
	case *loadFrom != "":
		f, err := os.Open(*loadFrom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nerlabel: %v\n", err)
			os.Exit(1)
		}
		m, err := ner.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "nerlabel: %v\n", err)
			os.Exit(1)
		}
		tagger = m
	case *model == "rules":
		tagger = ner.RuleTagger{}
	case *model == "trained" || *model == "crf":
		corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: *corpusN, Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nerlabel: generating corpus: %v\n", err)
			os.Exit(1)
		}
		var m *ner.Model
		if *model == "crf" {
			m, err = ner.TrainCRF(corpus.Examples(), ner.CRFConfig{Epochs: 4, Seed: *seed})
		} else {
			m, err = ner.Train(corpus.Examples(), ner.TrainConfig{Epochs: 5, Seed: *seed})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nerlabel: training: %v\n", err)
			os.Exit(1)
		}
		if *saveTo != "" {
			f, err := os.Create(*saveTo)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nerlabel: %v\n", err)
				os.Exit(1)
			}
			if err := m.Save(f); err != nil {
				f.Close()
				fmt.Fprintf(os.Stderr, "nerlabel: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "nerlabel: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "nerlabel: model saved to %s\n", *saveTo)
		}
		tagger = m
	default:
		fmt.Fprintf(os.Stderr, "nerlabel: unknown model %q\n", *model)
		os.Exit(2)
	}

	phrases := flag.Args()
	if len(phrases) == 0 {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				phrases = append(phrases, line)
			}
		}
	}
	if len(phrases) == 0 {
		fmt.Fprintln(os.Stderr, "nerlabel: no phrases given")
		os.Exit(2)
	}

	if *tokens {
		var sc ner.Scratch
		for _, p := range phrases {
			fmt.Printf("%s\n", p)
			toks := textutil.Tokenize(p)
			labels := tagger.TagScratch(toks, &sc)
			for i, tok := range toks {
				fmt.Printf("  %-16s %s\n", tok, labels[i])
			}
		}
		return
	}

	tb := report.NewTable("Ingredient Phrase", "Name", "State", "Quantity", "Unit", "Temp", "D/F", "Size")
	for _, p := range phrases {
		ex := ner.Extract(tagger, p)
		tb.AddRow(p, ex.Name, ex.State, ex.Quantity, ex.Unit, ex.Temp, ex.DryFresh, ex.Size)
	}
	fmt.Print(tb.String())
}
