package ner

import (
	"errors"
	"math"
	"math/rand"
)

// TrainCRF fits a linear-chain Conditional Random Field — the exact model
// class of the Stanford NER tagger the paper trains (§II-A) — by
// stochastic gradient ascent on the conditional log-likelihood, using the
// same feature templates and the same Viterbi decoder as the averaged
// perceptron (the returned *Model differs only in how its weights were
// estimated). Forward–backward runs in log space.
//
// On this corpus the CRF and the perceptron land in the same high-0.9 F1
// regime (see the NER experiment); the CRF is provided for fidelity to
// the paper and for the probabilistic marginals its training computes.
func TrainCRF(examples []Example, cfg CRFConfig) (*Model, error) {
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
	cfg.fill()

	m := NewModel()
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}

	// Pre-extract features once; they are position-static.
	var sc Scratch
	var buf []byte
	feats := make([][][]string, len(examples))
	for i, ex := range examples {
		feats[i] = make([][]string, len(ex.Tokens))
		sc.BeginPhrase(len(ex.Tokens))
		for j := range ex.Tokens {
			buf = emitFeatures(ex.Tokens, j, buf, &sc, func(key []byte) {
				feats[i][j] = append(feats[i][j], string(key))
			})
		}
	}

	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, idx := range order {
			step++
			lr := cfg.LearningRate / (1 + cfg.Decay*float64(step))
			m.sgdStep(examples[idx], feats[idx], lr, cfg.L2)
		}
	}
	return m, nil
}

// CRFConfig controls TrainCRF.
type CRFConfig struct {
	Epochs       int     // passes over the data (default 6)
	LearningRate float64 // initial SGD step size (default 0.2)
	Decay        float64 // step-size decay per update (default 1e-4)
	L2           float64 // L2 penalty applied to touched weights (default 1e-6)
	Seed         int64
}

func (c *CRFConfig) fill() {
	if c.Epochs <= 0 {
		c.Epochs = 6
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.2
	}
	if c.Decay <= 0 {
		c.Decay = 1e-4
	}
	if c.L2 < 0 {
		c.L2 = 0
	} else if c.L2 == 0 {
		c.L2 = 1e-6
	}
}

// sgdStep performs one conditional-log-likelihood gradient step for a
// single sentence: ∇ = empirical feature counts − model-expected counts,
// the expectations coming from forward–backward node and edge marginals.
func (m *Model) sgdStep(ex Example, feats [][]string, lr, l2 float64) {
	n := len(ex.Tokens)
	L := int(NLabels)

	// Emission scores.
	emit := make([][NLabels]float64, n)
	for i := range feats {
		for _, f := range feats[i] {
			if wv, ok := m.emissions[f]; ok {
				for l := 0; l < L; l++ {
					emit[i][l] += wv[l]
				}
			}
		}
	}

	// Forward (log space). alpha[i][l] includes emit[i][l].
	alpha := make([][NLabels]float64, n)
	for l := 0; l < L; l++ {
		alpha[0][l] = m.transitions[L][l] + emit[0][l]
	}
	var buf [NLabels]float64
	for i := 1; i < n; i++ {
		for l := 0; l < L; l++ {
			for from := 0; from < L; from++ {
				buf[from] = alpha[i-1][from] + m.transitions[from][l]
			}
			alpha[i][l] = logSumExp(buf[:]) + emit[i][l]
		}
	}
	logZ := logSumExp(alpha[n-1][:])

	// Backward. beta[i][l] excludes emit[i][l].
	beta := make([][NLabels]float64, n)
	for i := n - 2; i >= 0; i-- {
		for l := 0; l < L; l++ {
			for to := 0; to < L; to++ {
				buf[to] = m.transitions[l][to] + emit[i+1][to] + beta[i+1][to]
			}
			beta[i][l] = logSumExp(buf[:])
		}
	}

	// Emission gradient: for each position and feature,
	// w[l] += lr·(1{l=gold} − p(i,l)) − lr·l2·w[l].
	for i := 0; i < n; i++ {
		var marg [NLabels]float64
		for l := 0; l < L; l++ {
			marg[l] = math.Exp(alpha[i][l] + beta[i][l] - logZ)
		}
		gold := ex.Labels[i]
		for _, f := range feats[i] {
			wv, ok := m.emissions[f]
			if !ok {
				wv = new([NLabels]float64)
				m.emissions[f] = wv
			}
			for l := 0; l < L; l++ {
				g := -marg[l]
				if Label(l) == gold {
					g++
				}
				wv[l] += lr * (g - l2*wv[l])
			}
		}
	}

	// Transition gradient. Start row uses the position-0 marginals.
	{
		var marg [NLabels]float64
		for l := 0; l < L; l++ {
			marg[l] = math.Exp(alpha[0][l] + beta[0][l] - logZ)
		}
		for l := 0; l < L; l++ {
			g := -marg[l]
			if Label(l) == ex.Labels[0] {
				g++
			}
			m.transitions[L][l] += lr * g
		}
	}
	for i := 1; i < n; i++ {
		for from := 0; from < L; from++ {
			for to := 0; to < L; to++ {
				p := math.Exp(alpha[i-1][from] + m.transitions[from][to] +
					emit[i][to] + beta[i][to] - logZ)
				g := -p
				if ex.Labels[i-1] == Label(from) && ex.Labels[i] == Label(to) {
					g++
				}
				m.transitions[from][to] += lr * g
			}
		}
	}
}

// logSumExp computes log Σ exp(x) stably.
func logSumExp(xs []float64) float64 {
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}
