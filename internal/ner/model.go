package ner

import (
	"errors"
	"math/rand"
)

// Model is a linear-chain sequence tagger: per-feature emission weights
// and label-to-label transition weights, decoded with Viterbi. Training
// uses the averaged structured perceptron (Collins 2002), a discriminative
// trainer in the same model family as the CRF the paper uses, with the
// same feature expressiveness at a fraction of the training cost.
type Model struct {
	emissions   map[string]*[NLabels]float64
	transitions [NLabels + 1][NLabels]float64 // row NLabels is the start state
}

// NewModel returns an empty (all-zero) model.
func NewModel() *Model {
	return &Model{emissions: make(map[string]*[NLabels]float64)}
}

// Tag decodes the best label sequence for a tokenized phrase: TagScratch
// on a fresh Scratch, for callers that keep none.
func (m *Model) Tag(tokens []string) []Label {
	return m.TagScratch(tokens, new(Scratch))
}

// TagScratch decodes the best label sequence into sc. Each position's
// emission row sums the weights of the keys emitFeatures builds, probed
// straight in the emission table (the m[string(key)] probe does not
// allocate), so a warm sc decodes without allocating. It readies sc for
// tokens (BeginPhrase). The returned slice aliases sc.
func (m *Model) TagScratch(tokens []string, sc *Scratch) []Label {
	sc.BeginPhrase(len(tokens))
	if len(tokens) == 0 {
		return nil
	}
	n := len(tokens)
	emit := sc.emitRows(n)
	var row *[NLabels]float64
	add := func(key []byte) {
		if wv, ok := m.emissions[string(key)]; ok {
			for l := 0; l < int(NLabels); l++ {
				row[l] += wv[l]
			}
		}
	}
	buf := sc.buf
	for i := range tokens {
		row = &emit[i]
		buf = emitFeatures(tokens, i, buf, sc, add)
	}
	sc.buf = buf

	// Viterbi over fixed-size score arrays; prev/cur swap by array copy.
	var prev, cur [NLabels]float64
	back := sc.backRows(n)
	for l := Label(0); l < NLabels; l++ {
		prev[l] = m.transitions[NLabels][l] + emit[0][l]
	}
	for i := 1; i < n; i++ {
		row := back[i*int(NLabels) : (i+1)*int(NLabels)]
		for l := Label(0); l < NLabels; l++ {
			best, bestFrom := prev[0]+m.transitions[0][l], Label(0)
			for from := Label(1); from < NLabels; from++ {
				if s := prev[from] + m.transitions[from][l]; s > best {
					best, bestFrom = s, from
				}
			}
			cur[l] = best + emit[i][l]
			row[l] = bestFrom
		}
		prev = cur
	}

	bestLabel, bestScore := Label(0), prev[0]
	for l := Label(1); l < NLabels; l++ {
		if prev[l] > bestScore {
			bestLabel, bestScore = l, prev[l]
		}
	}
	labels := sc.labelSlice(n)
	labels[n-1] = bestLabel
	for i := n - 1; i > 0; i-- {
		labels[i-1] = back[i*int(NLabels)+int(labels[i])]
	}
	return labels
}

// TrainConfig controls perceptron training.
type TrainConfig struct {
	Epochs int   // passes over the training set (default 8)
	Seed   int64 // shuffling seed; training is deterministic given it
}

// Train fits an averaged structured perceptron on gold examples. The
// returned model holds the averaged weights, which generalize markedly
// better than the final raw weights.
func Train(examples []Example, cfg TrainConfig) (*Model, error) {
	if len(examples) == 0 {
		return nil, errors.New("ner: no training examples")
	}
	for _, ex := range examples {
		if err := ex.Validate(); err != nil {
			return nil, err
		}
		if len(ex.Tokens) == 0 {
			return nil, errors.New("ner: empty training example")
		}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 8
	}

	raw := NewModel()
	// Averaging bookkeeping: totals accumulate weight×steps-held via the
	// lazy-update trick (Daumé's averaged perceptron formulation). Each
	// feature's raw weights w are the row raw.emissions holds, which the
	// decoder reads.
	type featAvg struct {
		w     *[NLabels]float64
		total [NLabels]float64
		last  [NLabels]int
	}
	avgs := make(map[string]*featAvg)
	var totalTransitions [NLabels + 1][NLabels]float64
	var lastTransUpdate [NLabels + 1][NLabels]int

	step := 0
	// bumpEmit moves the weight for label l of the feature spelled by key
	// by delta. A known key is probed without allocating; a new one is
	// copied once.
	bumpEmit := func(key []byte, l Label, delta float64) {
		fa, ok := avgs[string(key)]
		if !ok {
			f := string(key)
			fa = &featAvg{w: new([NLabels]float64)}
			raw.emissions[f] = fa.w
			avgs[f] = fa
		}
		fa.total[l] += fa.w[l] * float64(step-fa.last[l])
		fa.last[l] = step
		fa.w[l] += delta
	}
	bumpTrans := func(from int, to Label, delta float64) {
		totalTransitions[from][to] += raw.transitions[from][to] * float64(step-lastTransUpdate[from][to])
		lastTransUpdate[from][to] = step
		raw.transitions[from][to] += delta
	}

	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// One scratch decodes every example; pred aliases it until the next.
	var sc Scratch
	var buf []byte
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			ex := examples[idx]
			step++
			pred := raw.TagScratch(ex.Tokens, &sc)
			for i := range ex.Tokens {
				gold, guess := ex.Labels[i], pred[i]
				if gold == guess {
					continue
				}
				buf = emitFeatures(ex.Tokens, i, buf, &sc, func(key []byte) {
					bumpEmit(key, gold, 1)
					bumpEmit(key, guess, -1)
				})
			}
			// Transition updates, including the start transition.
			goldPrev, predPrev := int(NLabels), int(NLabels)
			for i := range ex.Tokens {
				g, p := ex.Labels[i], pred[i]
				if goldPrev != predPrev || g != p {
					bumpTrans(goldPrev, g, 1)
					bumpTrans(predPrev, p, -1)
				}
				goldPrev, predPrev = int(g), int(p)
			}
		}
	}

	// Finalize averages.
	avg := NewModel()
	denom := float64(step)
	for f, fa := range avgs {
		out := new([NLabels]float64)
		nonzero := false
		for l := 0; l < int(NLabels); l++ {
			t := fa.total[l] + fa.w[l]*float64(step-fa.last[l])
			out[l] = t / denom
			if out[l] != 0 {
				nonzero = true
			}
		}
		if nonzero {
			avg.emissions[f] = out
		}
	}
	for from := 0; from <= int(NLabels); from++ {
		for to := Label(0); to < NLabels; to++ {
			t := totalTransitions[from][to] +
				raw.transitions[from][to]*float64(step-lastTransUpdate[from][to])
			avg.transitions[from][to] = t / denom
		}
	}
	return avg, nil
}

// FeatureCount reports the number of active emission features (for
// diagnostics and tests).
func (m *Model) FeatureCount() int { return len(m.emissions) }
