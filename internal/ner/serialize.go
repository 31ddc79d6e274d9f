package ner

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
)

// modelData is the exported gob shadow of Model.
type modelData struct {
	Version int
	// Features holds one row per emission feature, in strictly
	// increasing Key order, so a model has exactly one encoding.
	Features    []featureData
	Transitions [][]float64
}

// featureData is one emission feature and its per-label weights.
type featureData struct {
	Key     string
	Weights []float64
}

// modelVersion 2 writes the features as a sorted slice; version 1
// wrote them as a map, in Go's random map order.
const modelVersion = 2

// Save serializes the trained model. The format is gob with a version
// header; Load rejects every other version. Features are written in
// sorted order, so saving equal models from the same program writes
// equal bytes (gob numbers a program's types in the order it first
// encodes them, so a program that gob-encodes other types first may
// number them differently).
func (m *Model) Save(w io.Writer) error {
	keys := make([]string, 0, len(m.emissions))
	for f := range m.emissions {
		keys = append(keys, f)
	}
	sort.Strings(keys)
	data := modelData{
		Version:  modelVersion,
		Features: make([]featureData, len(keys)),
	}
	for i, f := range keys {
		data.Features[i] = featureData{Key: f, Weights: append([]float64(nil), m.emissions[f][:]...)}
	}
	data.Transitions = make([][]float64, NLabels+1)
	for from := 0; from <= int(NLabels); from++ {
		data.Transitions[from] = append([]float64(nil), m.transitions[from][:]...)
	}
	if err := gob.NewEncoder(w).Encode(data); err != nil {
		return fmt.Errorf("ner: encoding model: %w", err)
	}
	return nil
}

// Load deserializes a model written by Save. It rejects a file whose
// features are not in strictly increasing order, which also rejects
// a feature written twice.
func Load(r io.Reader) (*Model, error) {
	var data modelData
	if err := gob.NewDecoder(r).Decode(&data); err != nil {
		return nil, fmt.Errorf("ner: decoding model: %w", err)
	}
	if data.Version != modelVersion {
		return nil, fmt.Errorf("ner: model version %d, want %d", data.Version, modelVersion)
	}
	if len(data.Transitions) != int(NLabels)+1 {
		return nil, fmt.Errorf("ner: model has %d transition rows, want %d",
			len(data.Transitions), NLabels+1)
	}
	m := NewModel()
	for i, f := range data.Features {
		if i > 0 && f.Key <= data.Features[i-1].Key {
			return nil, fmt.Errorf("ner: feature %q follows %q; want strictly increasing features",
				f.Key, data.Features[i-1].Key)
		}
		if len(f.Weights) != int(NLabels) {
			return nil, fmt.Errorf("ner: feature %q has %d weights, want %d", f.Key, len(f.Weights), NLabels)
		}
		wv := new([NLabels]float64)
		copy(wv[:], f.Weights)
		m.emissions[f.Key] = wv
	}
	for from, row := range data.Transitions {
		if len(row) != int(NLabels) {
			return nil, fmt.Errorf("ner: transition row %d has %d weights, want %d", from, len(row), NLabels)
		}
		copy(m.transitions[from][:], row)
	}
	return m, nil
}
