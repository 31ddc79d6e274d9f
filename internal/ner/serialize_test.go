package ner

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
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

// modelFile assembles a model file by hand: the header with the given
// version and label count, all-zero transitions, then the features in
// the order given, each with all-zero weights.
func modelFile(version, labels uint32, features ...string) []byte {
	b := []byte(modelMagic)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint32(b, labels)
	b = append(b, make([]byte, (int(NLabels)+1)*weightsBytes)...)
	b = binary.AppendUvarint(b, uint64(len(features)))
	for _, f := range features {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
		b = append(b, make([]byte, weightsBytes)...)
	}
	return b
}

// TestLoadRejectsOldAndUnorderedFiles: Load refuses the gob formats
// (versions 1 and 2), a different label count, truncated input,
// trailing bytes, a varint longer than its shortest form, and any file
// whose features are not strictly increasing — out of order, or one
// feature written twice.
func TestLoadRejectsOldAndUnorderedFiles(t *testing.T) {
	ok := modelFile(modelVersion, uint32(NLabels), "a", "b")
	if m, err := Load(bytes.NewReader(ok)); err != nil || m.FeatureCount() != 2 {
		t.Fatalf("Load of two ordered features = %v, %v", m, err)
	}
	var gobV2 bytes.Buffer
	if err := gob.NewEncoder(&gobV2).Encode(struct{ Version int }{2}); err != nil {
		t.Fatal(err)
	}
	// The feature count sits right after the transitions; 0x81 0x00 is
	// a two-byte spelling of 1.
	countAt := headerBytes + (int(NLabels)+1)*weightsBytes
	overlong := append(append(append([]byte(nil), ok[:countAt]...), 0x81, 0x00), modelFile(modelVersion, uint32(NLabels), "a")[countAt+1:]...)
	huge := append(append([]byte(nil), ok[:countAt]...), binary.AppendUvarint(nil, 1<<40)...)
	cases := map[string][]byte{
		"gob version 2":      gobV2.Bytes(),
		"version 1":          modelFile(1, uint32(NLabels), "a"),
		"version 2":          modelFile(2, uint32(NLabels), "a"),
		"label count":        modelFile(modelVersion, uint32(NLabels)+1, "a"),
		"duplicate":          modelFile(modelVersion, uint32(NLabels), "a", "a"),
		"out of order":       modelFile(modelVersion, uint32(NLabels), "b", "a"),
		"truncated":          ok[:len(ok)-1],
		"truncated header":   ok[:headerBytes-1],
		"trailing byte":      append(append([]byte(nil), ok...), 0),
		"overlong varint":    overlong,
		"count beyond input": huge,
	}
	for name, b := range cases {
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: Load accepted it", name)
		}
	}
}

// TestSaveGolden pins the bytes Save writes for the models
// TestTrainedWeightsGolden trains, so a change to the file format fails
// here across commits, and checks that loading them back reproduces
// the pinned weights.
func TestSaveGolden(t *testing.T) {
	want := map[string]string{
		"perceptron": "ea86986f05dedbfba2544c9c69df5e6b2c5e60f71be86fb7b47c4e320f94ac29",
		"crf":        "16717291178e11132736b83cd0be618fe4b5efce9350cc3f781f2788452285da",
	}
	for _, g := range goldenModels(t) {
		var buf bytes.Buffer
		if err := g.m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[g.name] {
			t.Errorf("%s: saved file digest %s, want %s (%d bytes)", g.name, got, want[g.name], buf.Len())
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := weightsDigest(back); got != g.want {
			t.Errorf("%s: loaded weights digest %s, want %s", g.name, got, g.want)
		}
	}
}

// FuzzLoadModel: Load never panics, and any input it accepts re-saves
// to exactly its own bytes — a model file has one encoding. Seeded with
// a saved model and its truncations.
func FuzzLoadModel(f *testing.F) {
	m, err := Train(goldCorpus(20, 3), TrainConfig{Epochs: 1, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.Bytes()
	for _, n := range []int{0, 3, headerBytes, headerBytes + 8, len(saved) / 2, len(saved) - 1, len(saved)} {
		f.Add(saved[:n])
	}
	f.Add(modelFile(modelVersion, uint32(NLabels), "", "a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-save as %d different bytes", len(data), out.Len())
		}
	})
}
