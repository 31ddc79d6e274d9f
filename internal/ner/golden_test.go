package ner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"
)

// weightsDigest hashes a model's complete weight state: every emission
// feature in sorted order (length-prefixed spelling, then the
// math.Float64bits of each label weight), followed by the transition
// matrix row by row. Two models digest equal only if their weights are
// bit-identical.
func weightsDigest(m *Model) string {
	feats := make([]string, 0, len(m.emissions))
	for f := range m.emissions {
		feats = append(feats, f)
	}
	sort.Strings(feats)
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, f := range feats {
		put(uint64(len(f)))
		h.Write([]byte(f))
		for _, w := range m.emissions[f] {
			put(math.Float64bits(w))
		}
	}
	for _, row := range m.transitions {
		for _, w := range row {
			put(math.Float64bits(w))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenModel is a trained model and the recorded digest of its
// weights.
type goldenModel struct {
	name string
	m    *Model
	want string
}

// goldenModels trains the perceptron and the CRF that
// TestTrainedWeightsGolden pins, on its fixed corpus.
func goldenModels(t *testing.T) []goldenModel {
	t.Helper()
	corpus := goldCorpus(150, 5)
	perceptron, err := Train(corpus, TrainConfig{Epochs: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	crf, err := TrainCRF(corpus, CRFConfig{Epochs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return []goldenModel{
		{"perceptron", perceptron, "72e2d2b5407b4e37c7945e6feb6087c00ecca0cb9587af1f7e7f082900b45bdf"},
		{"crf", crf, "2da71787a1fa4668accf1ee252eae3949ae591d2d53a77bbef6f464e02407ecf"},
	}
}

// TestTrainedWeightsGolden pins the weights both trainers produce on a
// fixed corpus to recorded SHA-256 digests, so a change to the feature
// template, the decoder or the update rules that moves any weight by
// one bit fails here, not only in the downstream F1 rows.
// TestTrainDeterministic compares two runs of one build; this catches
// drift across commits.
func TestTrainedWeightsGolden(t *testing.T) {
	for _, c := range goldenModels(t) {
		if got := weightsDigest(c.m); got != c.want {
			t.Errorf("%s weights digest %s, want %s (%d features)", c.name, got, c.want, c.m.FeatureCount())
		}
	}
}
