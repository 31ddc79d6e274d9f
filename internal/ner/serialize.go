package ner

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// The model file, format version 3, is a fixed little-endian layout, so
// a model has exactly one encoding and every program that saves it
// writes the same bytes:
//
//	magic        4 bytes, "NERM"
//	version      uint32, 3
//	labels       uint32, NLabels
//	transitions  (NLabels+1)×NLabels weights, row by row (the start row last)
//	features     uvarint count, then per feature, in strictly increasing
//	             spelling order: uvarint length, spelling, NLabels weights
//
// A weight is the uint64 of math.Float64bits. Versions 1 and 2 were gob
// encodings, whose bytes depended on what else the program had
// gob-encoded first; Load rejects them.
const (
	modelMagic   = "NERM"
	modelVersion = 3

	headerBytes     = len(modelMagic) + 4 + 4
	weightsBytes    = 8 * int(NLabels)
	featureMinBytes = 1 + weightsBytes // a one-byte length, an empty spelling
)

// Save serializes the trained model in format version 3.
func (m *Model) Save(w io.Writer) error {
	keys := make([]string, 0, len(m.emissions))
	for f := range m.emissions {
		keys = append(keys, f)
	}
	sort.Strings(keys)
	b := []byte(modelMagic)
	b = binary.LittleEndian.AppendUint32(b, modelVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(NLabels))
	for from := range m.transitions {
		b = appendWeights(b, &m.transitions[from])
	}
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, f := range keys {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
		b = appendWeights(b, m.emissions[f])
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("ner: writing model: %w", err)
	}
	return nil
}

func appendWeights(b []byte, ws *[NLabels]float64) []byte {
	for _, x := range ws {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

var errTruncated = errors.New("ner: model file is truncated")

// Load deserializes a model written by Save. It reads r to the end and
// decodes those bytes, rejecting any other format version, a different
// label count, truncated input, trailing bytes, a varint not in its
// shortest form and features that are not in strictly increasing order
// (which also rejects a feature written twice). It checks every length
// and count against the bytes left before allocating for it.
func Load(r io.Reader) (*Model, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ner: reading model: %w", err)
	}
	if len(b) < headerBytes {
		return nil, errTruncated
	}
	if string(b[:len(modelMagic)]) != modelMagic {
		return nil, errors.New("ner: not a model file (no NERM magic; versions 1 and 2 were gob)")
	}
	b = b[len(modelMagic):]
	if v := binary.LittleEndian.Uint32(b); v != modelVersion {
		return nil, fmt.Errorf("ner: model version %d, want %d", v, modelVersion)
	}
	if n := binary.LittleEndian.Uint32(b[4:]); n != uint32(NLabels) {
		return nil, fmt.Errorf("ner: model has %d labels, want %d", n, NLabels)
	}
	b = b[8:]

	m := new(Model)
	for from := range m.transitions {
		if len(b) < weightsBytes {
			return nil, errTruncated
		}
		b = readWeights(b, &m.transitions[from])
	}
	count, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	if count > uint64(len(b)/featureMinBytes) {
		return nil, fmt.Errorf("ner: model claims %d features in %d bytes", count, len(b))
	}
	m.emissions = make(map[string]*[NLabels]float64, count)
	prev := ""
	for i := uint64(0); i < count; i++ {
		var n uint64
		if n, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		if n > uint64(len(b)) || len(b)-int(n) < weightsBytes {
			return nil, errTruncated
		}
		f := string(b[:n])
		if i > 0 && f <= prev {
			return nil, fmt.Errorf("ner: feature %q follows %q; want strictly increasing features", f, prev)
		}
		wv := new([NLabels]float64)
		b = readWeights(b[n:], wv)
		m.emissions[f] = wv
		prev = f
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("ner: %d trailing bytes after the model", len(b))
	}
	return m, nil
}

// readWeights decodes NLabels weights from the front of b, which must
// hold them, and returns the rest.
func readWeights(b []byte, ws *[NLabels]float64) []byte {
	for l := range ws {
		ws[l] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*l:]))
	}
	return b[weightsBytes:]
}

// readUvarint decodes a uvarint in its shortest form from the front of
// b and returns it with the rest of b. A longer spelling of the same
// value is rejected, so an accepted file re-saves to its own bytes.
func readUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n == 0 {
		return 0, nil, errTruncated
	}
	var enc [binary.MaxVarintLen64]byte
	if n < 0 || binary.PutUvarint(enc[:], x) != n {
		return 0, nil, errors.New("ner: model file has a malformed varint")
	}
	return x, b[n:], nil
}
