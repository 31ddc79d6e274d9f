// Package eval implements the paper's evaluation harness (§III and the
// §II-A model validation): NER precision/recall/F1 with k-fold cross
// validation, ingredient match-rate and match-accuracy, per-recipe
// mapping histograms (Fig. 2) and per-serving calorie error.
package eval

import (
	"errors"
	"fmt"
	"math/rand"

	"nutriprofile/internal/ner"
)

// PRF bundles precision, recall and F1 for one label.
type PRF struct {
	Precision, Recall, F1 float64
	Support               int // gold token count
}

// NERMetrics summarizes a tagger against gold examples.
type NERMetrics struct {
	TokenAccuracy float64
	PerLabel      map[ner.Label]PRF
	// MicroF1 pools counts over all entity labels (O excluded), the
	// figure comparable to the paper's reported F1 = 0.95.
	MicroF1 float64
	// MacroF1 averages per-label F1 over entity labels with support.
	MacroF1 float64
	// Confusion[gold][pred] counts token-level confusions, for error
	// analysis.
	Confusion [ner.NLabels][ner.NLabels]int
}

func prf(tp, fp, fn int) PRF {
	var p, r, f float64
	if tp+fp > 0 {
		p = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r = float64(tp) / float64(tp+fn)
	}
	if p+r > 0 {
		f = 2 * p * r / (p + r)
	}
	return PRF{Precision: p, Recall: r, F1: f, Support: tp + fn}
}

// EvaluateNER scores a tagger on gold examples. Every phrase decodes
// into one ner.Scratch, as ner.ExtractScratch does; each label slice is
// consumed before the next decode reuses it.
func EvaluateNER(tagger ner.Tagger, gold []ner.Example) (NERMetrics, error) {
	if len(gold) == 0 {
		return NERMetrics{}, errors.New("eval: no gold examples")
	}
	sc := new(ner.Scratch)
	var tp, fp, fn [ner.NLabels]int
	var confusion [ner.NLabels][ner.NLabels]int
	correct, total := 0, 0
	for _, ex := range gold {
		if err := ex.Validate(); err != nil {
			return NERMetrics{}, err
		}
		pred := tagger.TagScratch(ex.Tokens, sc)
		for i, g := range ex.Labels {
			p := pred[i]
			total++
			confusion[g][p]++
			if p == g {
				correct++
				tp[g]++
			} else {
				fp[p]++
				fn[g]++
			}
		}
	}

	m := NERMetrics{
		TokenAccuracy: float64(correct) / float64(total),
		PerLabel:      map[ner.Label]PRF{},
		Confusion:     confusion,
	}
	var microTP, microFP, microFN int
	macroSum, macroN := 0.0, 0
	for l := ner.Label(0); l < ner.NLabels; l++ {
		score := prf(tp[l], fp[l], fn[l])
		m.PerLabel[l] = score
		if l == ner.Out {
			continue
		}
		microTP += tp[l]
		microFP += fp[l]
		microFN += fn[l]
		if score.Support > 0 {
			macroSum += score.F1
			macroN++
		}
	}
	m.MicroF1 = prf(microTP, microFP, microFN).F1
	if macroN > 0 {
		m.MacroF1 = macroSum / float64(macroN)
	}
	return m, nil
}

// span is a maximal run of one entity label.
type span struct {
	label      ner.Label
	start, end int // [start, end)
}

// extractSpans converts a label sequence into entity spans, merging
// adjacent identical labels (the Assemble convention) and skipping O.
func extractSpans(labels []ner.Label) []span {
	var out []span
	for i := 0; i < len(labels); {
		l := labels[i]
		j := i + 1
		for j < len(labels) && labels[j] == l {
			j++
		}
		if l != ner.Out {
			out = append(out, span{label: l, start: i, end: j})
		}
		i = j
	}
	return out
}

// SpanF1 scores a tagger at the entity-span level — the strict CoNLL-style
// metric where a predicted span counts only if label, start and end all
// match a gold span exactly. This is harsher than token-level F1 and is
// the standard NER headline figure. Phrases decode on one scratch, as in
// EvaluateNER.
func SpanF1(tagger ner.Tagger, gold []ner.Example) (PRF, error) {
	if len(gold) == 0 {
		return PRF{}, errors.New("eval: no gold examples")
	}
	sc := new(ner.Scratch)
	tp, fp, fn := 0, 0, 0
	for _, ex := range gold {
		if err := ex.Validate(); err != nil {
			return PRF{}, err
		}
		goldSpans := extractSpans(ex.Labels)
		predSpans := extractSpans(tagger.TagScratch(ex.Tokens, sc))
		matched := make([]bool, len(goldSpans))
		for _, p := range predSpans {
			hit := false
			for gi, g := range goldSpans {
				if !matched[gi] && g == p {
					matched[gi] = true
					hit = true
					break
				}
			}
			if hit {
				tp++
			} else {
				fp++
			}
		}
		for _, m := range matched {
			if !m {
				fn++
			}
		}
	}
	return prf(tp, fp, fn), nil
}

// KFoldResult carries the per-fold and aggregate CV scores.
type KFoldResult struct {
	Folds []NERMetrics
	// MeanMicroF1 is the cross-validated figure matching the paper's
	// "F1 score of 0.95 on the test set validated by 5-fold cross
	// validation".
	MeanMicroF1       float64
	MeanTokenAccuracy float64
}

// KFoldNER runs k-fold cross validation: for each fold, train on the
// other k−1 folds and evaluate on the held-out one. The split is
// deterministic for a given seed.
func KFoldNER(examples []ner.Example, k int, trainCfg ner.TrainConfig, seed int64) (KFoldResult, error) {
	if k < 2 {
		return KFoldResult{}, fmt.Errorf("eval: k must be ≥ 2, got %d", k)
	}
	if len(examples) < k {
		return KFoldResult{}, fmt.Errorf("eval: %d examples for %d folds", len(examples), k)
	}
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	var res KFoldResult
	for fold := 0; fold < k; fold++ {
		var train, test []ner.Example
		for pos, idx := range order {
			if pos%k == fold {
				test = append(test, examples[idx])
			} else {
				train = append(train, examples[idx])
			}
		}
		model, err := ner.Train(train, trainCfg)
		if err != nil {
			return KFoldResult{}, fmt.Errorf("eval: fold %d training: %w", fold, err)
		}
		m, err := EvaluateNER(model, test)
		if err != nil {
			return KFoldResult{}, fmt.Errorf("eval: fold %d scoring: %w", fold, err)
		}
		res.Folds = append(res.Folds, m)
		res.MeanMicroF1 += m.MicroF1
		res.MeanTokenAccuracy += m.TokenAccuracy
	}
	res.MeanMicroF1 /= float64(k)
	res.MeanTokenAccuracy /= float64(k)
	return res, nil
}
