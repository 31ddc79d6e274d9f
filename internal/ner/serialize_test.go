package ner

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	model, err := Train(goldCorpus(200, 7), TrainConfig{Epochs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.FeatureCount() != model.FeatureCount() {
		t.Fatalf("feature count %d after round trip, want %d",
			back.FeatureCount(), model.FeatureCount())
	}
	// The loaded model must decode identically on a probe set.
	probes := []string{
		"2 cups fresh milk , chopped",
		"1/2 lb butter",
		"2-4 cloves garlic , minced",
		"1 small onion",
	}
	for _, p := range probes {
		toks := tokenize(p)
		a, b := model.Tag(toks), back.Tag(toks)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round-trip divergence on %q at token %d: %v vs %v", p, i, a[i], b[i])
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Error("Load accepted garbage")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("Load accepted empty input")
	}
}

func TestSaveEmptyModel(t *testing.T) {
	var buf bytes.Buffer
	if err := NewModel().Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.FeatureCount() != 0 {
		t.Errorf("empty model round-tripped with %d features", m.FeatureCount())
	}
}

// TestSaveReproducible: two saves of one model write the same bytes,
// and loading them back reproduces the exact weights
// TestTrainedWeightsGolden pins.
func TestSaveReproducible(t *testing.T) {
	for _, g := range goldenModels(t) {
		var a, b bytes.Buffer
		if err := g.m.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := g.m.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: two saves of one model differ (%d and %d bytes)", g.name, a.Len(), b.Len())
		}
		back, err := Load(&a)
		if err != nil {
			t.Fatal(err)
		}
		if got := weightsDigest(back); got != g.want {
			t.Errorf("%s: loaded weights digest %s, want %s", g.name, got, g.want)
		}
	}
}

// TestLoadRejectsOldAndUnorderedFiles: Load refuses the version-1
// format, which wrote the features as a map, and any file whose
// features are not strictly increasing — out of order, or one feature
// written twice.
func TestLoadRejectsOldAndUnorderedFiles(t *testing.T) {
	rows := make([][]float64, NLabels+1)
	for i := range rows {
		rows[i] = make([]float64, NLabels)
	}
	w := make([]float64, NLabels)
	encode := func(v any) *bytes.Buffer {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	v1 := struct {
		Version     int
		Emissions   map[string][]float64
		Transitions [][]float64
	}{1, map[string][]float64{"a": w}, rows}
	cases := map[string]*bytes.Buffer{
		"version 1":      encode(v1),
		"duplicate":      encode(modelData{Version: modelVersion, Features: []featureData{{"a", w}, {"a", w}}, Transitions: rows}),
		"out of order":   encode(modelData{Version: modelVersion, Features: []featureData{{"b", w}, {"a", w}}, Transitions: rows}),
		"short features": encode(modelData{Version: modelVersion, Features: []featureData{{"a", w[:1]}}, Transitions: rows}),
	}
	for name, buf := range cases {
		if _, err := Load(buf); err == nil {
			t.Errorf("%s: Load accepted it", name)
		}
	}
	ok := encode(modelData{Version: modelVersion, Features: []featureData{{"a", w}, {"b", w}}, Transitions: rows})
	if m, err := Load(ok); err != nil || m.FeatureCount() != 2 {
		t.Fatalf("Load of two ordered features = %v, %v", m, err)
	}
}
