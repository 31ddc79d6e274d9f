package bake

// Image decoding. Load does no per-food work: on a little-endian host
// every numeric section is an unsafe.Slice view into the image buffer
// and the string blob an unsafe.String view of it, and the sections
// become the usda.DB's columns as they are (usda.FromColumns) — the
// image is the table's only resident copy, and a pointer-free []byte
// the garbage collector never scans. The only per-food allocations
// are the DB's weight-row offsets and the index's HasRaw flags, each
// one array. Misaligned or big-endian hosts transparently take a
// copying path with identical results.
//
// Every range and offset an accessor follows is checked once, here,
// before Load returns: the CRC, section bounds, the weight-count sum,
// NDB order, and the blob range of every description, unit,
// canonical-unit and term string. The matcher index's own structure
// (CSR offsets, term and document IDs) is checked by
// match.NewFromIndex, which every consumer of a Loaded runs to build
// its matcher.
//
// Everything returned by Load aliases the image buffer; callers must
// treat the buffer as immutable for the lifetime of the returned DB
// and Index (LoadFile owns its buffer privately, so this only concerns
// direct Load callers). LoadFile reads the file into the Go heap rather
// than mapping it: strings a DB hands out (descriptions, units) may
// outlive the snapshot after an /admin/reload, and a heap buffer stays
// valid for as long as any of them does.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"unsafe"

	"nutriprofile/internal/match"
	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/usda/sr"
)

// hostLittle reports whether the host is little-endian — the image's
// byte order, and the precondition for the slice-cast fast path.
var hostLittle = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// The nutrient section stores 11 float64s per food in nutrition.Profile
// field order, so Load views it as []nutrition.Profile. These fail to
// compile if Profile stops being exactly 11 float64s; TestRoundTrip
// pins the field order.
var (
	_ [unsafe.Sizeof(nutrition.Profile{}) - 11*8]byte
	_ [11*8 - unsafe.Sizeof(nutrition.Profile{})]byte
)

// Loaded is an opened table: the database, its matcher index, and,
// for a decoded image, the image identity (size + checksum) for
// observability.
type Loaded struct {
	DB    *usda.DB
	Index *match.Index
	Bytes int    // image size in bytes; 0 for a table Open built in memory
	CRC   uint32 // payload CRC-32C, the image's content identity
	// SR is the parse report of an sr: table (Open), nil otherwise.
	SR *sr.Report
}

// cursor walks the payload sections in their fixed order.
type cursor struct {
	buf []byte
	off int
}

// take reserves n bytes (plus padding to 8) and returns their offset.
func (c *cursor) take(n int) (int, error) {
	if n < 0 || n > len(c.buf)-c.off {
		return 0, fmt.Errorf("%w: section of %d bytes at offset %d", ErrTruncated, n, c.off)
	}
	off := c.off
	c.off += n
	if rem := c.off % 8; rem != 0 {
		pad := 8 - rem
		if pad > len(c.buf)-c.off {
			return 0, fmt.Errorf("%w: missing section padding at offset %d", ErrTruncated, c.off)
		}
		c.off += pad
	}
	return off, nil
}

// aligned reports whether buf[off] can back a direct []T view.
func aligned(buf []byte, off int, align uintptr) bool {
	return uintptr(unsafe.Pointer(&buf[off]))%align == 0
}

// count validates a counts-block entry against the address space.
func count(v uint64) (int, error) {
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: implausible element count %d", ErrCorrupt, v)
	}
	return int(v), nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	off, err := c.take(n)
	if err != nil {
		return nil, err
	}
	return c.buf[off : off+n : off+n], nil
}

func (c *cursor) uint64s(n int) ([]uint64, error) {
	off, err := c.take(n * 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if hostLittle && aligned(c.buf, off, unsafe.Alignof(uint64(0))) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&c.buf[off])), n), nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(c.buf[off+8*i:])
	}
	return out, nil
}

func (c *cursor) uint32s(n int) ([]uint32, error) {
	off, err := c.take(n * 4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if hostLittle && aligned(c.buf, off, unsafe.Alignof(uint32(0))) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&c.buf[off])), n), nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(c.buf[off+4*i:])
	}
	return out, nil
}

func (c *cursor) int32s(n int) ([]int32, error) {
	us, err := c.uint32s(n)
	if err != nil || us == nil {
		return nil, err
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&us[0])), n), nil
}

func (c *cursor) float64s(n int) ([]float64, error) {
	us, err := c.uint64s(n)
	if err != nil || us == nil {
		return nil, err
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&us[0])), n), nil
}

// Load decodes an image. data must stay immutable while the returned
// DB/Index are in use (strings and numeric sections alias it).
func Load(data []byte) (*Loaded, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, header is %d", ErrTruncated, len(data), headerSize)
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadMagic, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: image version %d, loader supports %d", ErrVersion, v, Version)
	}
	payloadLen := binary.LittleEndian.Uint64(data[8:])
	if payloadLen != uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, file carries %d", ErrTruncated, payloadLen, len(data)-headerSize)
	}
	payload := data[headerSize:]
	wantCRC := binary.LittleEndian.Uint32(data[16:])
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("%w: crc32c %08x, header says %08x", ErrChecksum, got, wantCRC)
	}

	c := &cursor{buf: payload}
	counts, err := c.uint64s(countsLen)
	if err != nil {
		return nil, err
	}
	nFoods, err := count(counts[0])
	if err != nil {
		return nil, err
	}
	nWeights, err := count(counts[1])
	if err != nil {
		return nil, err
	}
	nTerms, err := count(counts[2])
	if err != nil {
		return nil, err
	}
	nDocTerms, err := count(counts[3])
	if err != nil {
		return nil, err
	}
	nPostings, err := count(counts[4])
	if err != nil {
		return nil, err
	}
	blobLen, err := count(counts[5])
	if err != nil {
		return nil, err
	}

	// Sections, mirroring the bake order exactly.
	foodNDB, err := c.int32s(nFoods)
	if err != nil {
		return nil, err
	}
	descOff, err := c.uint32s(nFoods)
	if err != nil {
		return nil, err
	}
	descLen, err := c.uint32s(nFoods)
	if err != nil {
		return nil, err
	}
	nutrients, err := c.float64s(nFoods * 11)
	if err != nil {
		return nil, err
	}
	weightCount, err := c.uint32s(nFoods)
	if err != nil {
		return nil, err
	}
	wSeq, err := c.int32s(nWeights)
	if err != nil {
		return nil, err
	}
	wAmount, err := c.float64s(nWeights)
	if err != nil {
		return nil, err
	}
	wGrams, err := c.float64s(nWeights)
	if err != nil {
		return nil, err
	}
	wUnitOff, err := c.uint32s(nWeights)
	if err != nil {
		return nil, err
	}
	wUnitLen, err := c.uint32s(nWeights)
	if err != nil {
		return nil, err
	}
	wCanonOff, err := c.uint32s(nWeights)
	if err != nil {
		return nil, err
	}
	wCanonLen, err := c.uint32s(nWeights)
	if err != nil {
		return nil, err
	}
	wKnown, err := c.bytes(nWeights)
	if err != nil {
		return nil, err
	}
	termOff, err := c.uint32s(nTerms)
	if err != nil {
		return nil, err
	}
	termLen, err := c.uint32s(nTerms)
	if err != nil {
		return nil, err
	}
	docTerms, err := c.uint32s(nDocTerms)
	if err != nil {
		return nil, err
	}
	docOff, err := c.int32s(nFoods + 1)
	if err != nil {
		return nil, err
	}
	hasRawBytes, err := c.bytes(nFoods)
	if err != nil {
		return nil, err
	}
	postDocs, err := c.int32s(nPostings)
	if err != nil {
		return nil, err
	}
	postPri, err := c.int32s(nPostings)
	if err != nil {
		return nil, err
	}
	postOff, err := c.int32s(nTerms + 1)
	if err != nil {
		return nil, err
	}
	blob, err := c.bytes(blobLen)
	if err != nil {
		return nil, err
	}
	if c.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(payload)-c.off)
	}

	// Adopt the sections as the table's columns: no per-food copy.
	// FromColumns checks the weight-count sum, NDB order and every
	// description and unit range before anything reads them.
	var blobStr string
	if len(blob) > 0 {
		blobStr = unsafe.String(&blob[0], len(blob))
	}
	var per100g []nutrition.Profile
	if nFoods > 0 {
		per100g = unsafe.Slice((*nutrition.Profile)(unsafe.Pointer(&nutrients[0])), nFoods)
	}
	db, err := usda.FromColumns(usda.Columns{
		NDB: foodNDB, DescOff: descOff, DescLen: descLen, Per100g: per100g, WeightCount: weightCount,
		Seq: wSeq, Amount: wAmount, Grams: wGrams, UnitOff: wUnitOff, UnitLen: wUnitLen,
		CanonOff: wCanonOff, CanonLen: wCanonLen, Known: wKnown, Blob: blobStr,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	terms := make([]string, nTerms)
	for t := range terms {
		off, ln := termOff[t], termLen[t]
		if uint64(off)+uint64(ln) > uint64(len(blobStr)) {
			return nil, fmt.Errorf("%w: term (%d,%d) beyond blob of %d bytes", ErrCorrupt, off, ln, len(blobStr))
		}
		terms[t] = blobStr[off : off+ln]
	}
	hasRaw := make([]bool, nFoods)
	for i, b := range hasRawBytes {
		hasRaw[i] = b != 0
	}
	idx := &match.Index{
		Terms:    terms,
		DocTerms: docTerms,
		DocOff:   docOff,
		HasRaw:   hasRaw,
		PostDocs: postDocs,
		PostPri:  postPri,
		PostOff:  postOff,
	}
	return &Loaded{DB: db, Index: idx, Bytes: len(data), CRC: wantCRC}, nil
}

// LoadFile reads and decodes an image file.
func LoadFile(path string) (*Loaded, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Load(data)
}
