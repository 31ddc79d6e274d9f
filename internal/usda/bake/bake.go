// Package bake compiles a parsed USDA database plus its prebuilt
// matcher index into a versioned, checksummed flat binary image, and
// loads such images back with near-zero per-food work. The offline
// cmd/dbbake tool writes images; nutriserve loads one at startup when
// its -db names an image, or on POST /admin/reload. Open (open.go)
// resolves every CLI's -db value: a table name, or an image path.
//
// # Image format (version 1, little-endian)
//
//	offset 0   magic "NPBK" (4 bytes)
//	offset 4   format version (uint32)
//	offset 8   payload length (uint64)
//	offset 16  CRC-32C (Castagnoli) of the payload (uint32)
//	offset 20  reserved (uint32, zero)
//	offset 24  payload
//
// The payload is a counts block (eight uint64s: foods, weight rows,
// vocabulary terms, document terms, postings, blob bytes, two
// reserved) followed by fixed-order sections, each padded to 8-byte
// alignment. Sections hold exactly the arrays internal/usda and
// internal/match use at run time — dense nutrient vectors (11 float64
// per food in nutrition.Profile field order), flat weight tables with
// precomputed canonical-unit resolutions, the interned vocabulary, and
// the CSR document/posting arrays of match.Index. Every string lives
// in one deduplicated blob and is referenced as (offset, length), so
// the loader adopts the whole database from a single file read: on a
// little-endian host each section is a direct slice cast into the image
// buffer and becomes a usda.DB column as it is, so the image is the
// table's only resident copy and a load makes the same dozen
// allocations whatever the food count (a copying fallback keeps
// big-endian or misaligned hosts correct).
//
// Integrity is checked before any section is interpreted: bad magic,
// unsupported version, truncation and checksum mismatch are rejected
// with the structured sentinels below, and structural validation
// (usda.FromColumns, then match.NewFromIndex) rejects semantically
// corrupt arrays — a baked image can fail to load, never panic.
package bake

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"nutriprofile/internal/match"
	"nutriprofile/internal/usda"
)

// Format constants.
const (
	magic      = "NPBK"
	Version    = 1
	headerSize = 24
	countsLen  = 8 // uint64s in the counts block
)

// Load failures. LoadFile/Load errors wrap exactly one of these.
var (
	ErrBadMagic  = errors.New("bake: not a baked DB image")
	ErrVersion   = errors.New("bake: unsupported image version")
	ErrTruncated = errors.New("bake: truncated image")
	ErrChecksum  = errors.New("bake: payload checksum mismatch")
	ErrCorrupt   = errors.New("bake: corrupt image")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func pad8(b []byte) []byte {
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

func putU32s(b []byte, vs []uint32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return pad8(b)
}

func putI32s(b []byte, vs []int32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return pad8(b)
}

func putF64s(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// BakeBytes serializes db (and its scoring index; computed with
// match.BuildIndex when idx is nil) into an image.
func BakeBytes(db *usda.DB, idx *match.Index) ([]byte, error) {
	if db == nil {
		return nil, fmt.Errorf("%w: nil database", ErrCorrupt)
	}
	if idx == nil {
		idx = match.BuildIndex(db)
	}
	n := db.Len()
	if len(idx.DocOff) != n+1 || len(idx.HasRaw) != n {
		return nil, fmt.Errorf("%w: index shape does not match database", ErrCorrupt)
	}

	// Gather the per-food and per-weight-row columns, interning every
	// string into the blob.
	var blob usda.BlobBuilder
	foodNDB := make([]int32, n)
	descOff := make([]uint32, n)
	descLen := make([]uint32, n)
	nutrients := make([]float64, 0, n*11)
	weightCount := make([]uint32, n)
	var wSeq []int32
	var wAmount, wGrams []float64
	var wUnitOff, wUnitLen, wCanonOff, wCanonLen []uint32
	var wKnown []byte
	for i := 0; i < n; i++ {
		f := db.At(i)
		foodNDB[i] = int32(f.NDB())
		descOff[i], descLen[i] = blob.Add(f.Desc())
		p := f.Per100g()
		nutrients = append(nutrients,
			p.EnergyKcal, p.ProteinG, p.FatG, p.CarbsG, p.FiberG, p.SugarG,
			p.CalciumMg, p.IronMg, p.SodiumMg, p.VitCMg, p.CholMg)
		weightCount[i] = uint32(f.NumWeights())
		for j := 0; j < f.NumWeights(); j++ {
			w := f.Weight(j)
			name, known := f.WeightUnit(j)
			wSeq = append(wSeq, int32(w.Seq))
			wAmount = append(wAmount, w.Amount)
			wGrams = append(wGrams, w.Grams)
			uo, ul := blob.Add(w.Unit)
			wUnitOff, wUnitLen = append(wUnitOff, uo), append(wUnitLen, ul)
			co, cl := blob.Add(name)
			wCanonOff, wCanonLen = append(wCanonOff, co), append(wCanonLen, cl)
			k := byte(0)
			if known {
				k = 1
			}
			wKnown = append(wKnown, k)
		}
	}
	termOff := make([]uint32, len(idx.Terms))
	termLen := make([]uint32, len(idx.Terms))
	for t, term := range idx.Terms {
		termOff[t], termLen[t] = blob.Add(term)
	}
	hasRaw := make([]byte, n)
	for i, r := range idx.HasRaw {
		if r {
			hasRaw[i] = 1
		}
	}

	// Counts block + sections, in the fixed order load.go mirrors.
	blobData := blob.String()
	payload := make([]byte, 0, 64+len(blobData)+16*n)
	for _, c := range [countsLen]uint64{
		uint64(n), uint64(len(wSeq)), uint64(len(idx.Terms)),
		uint64(len(idx.DocTerms)), uint64(len(idx.PostDocs)),
		uint64(len(blobData)), 0, 0,
	} {
		payload = binary.LittleEndian.AppendUint64(payload, c)
	}
	payload = putI32s(payload, foodNDB)
	payload = putU32s(payload, descOff)
	payload = putU32s(payload, descLen)
	payload = putF64s(payload, nutrients)
	payload = putU32s(payload, weightCount)
	payload = putI32s(payload, wSeq)
	payload = putF64s(payload, wAmount)
	payload = putF64s(payload, wGrams)
	payload = putU32s(payload, wUnitOff)
	payload = putU32s(payload, wUnitLen)
	payload = putU32s(payload, wCanonOff)
	payload = putU32s(payload, wCanonLen)
	payload = pad8(append(payload, wKnown...))
	payload = putU32s(payload, termOff)
	payload = putU32s(payload, termLen)
	payload = putU32s(payload, idx.DocTerms)
	payload = putI32s(payload, idx.DocOff)
	payload = pad8(append(payload, hasRaw...))
	payload = putI32s(payload, idx.PostDocs)
	payload = putI32s(payload, idx.PostPri)
	payload = putI32s(payload, idx.PostOff)
	payload = pad8(append(payload, blobData...))

	img := make([]byte, 0, headerSize+len(payload))
	img = append(img, magic...)
	img = binary.LittleEndian.AppendUint32(img, Version)
	img = binary.LittleEndian.AppendUint64(img, uint64(len(payload)))
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(payload, castagnoli))
	img = binary.LittleEndian.AppendUint32(img, 0)
	return append(img, payload...), nil
}

// WriteFile bakes db into an image at path (written atomically via a
// temp file + rename, so a crashed bake never leaves a torn image).
func WriteFile(path string, db *usda.DB, idx *match.Index) error {
	img, err := BakeBytes(db, idx)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, img, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
