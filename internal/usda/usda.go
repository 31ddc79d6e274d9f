// Package usda models a USDA Standard Reference (USDA-SR) style food
// composition database — the reference the paper matches ingredient names
// against (§II-B) and draws gram weights and nutrient values from (§II-C).
//
// The model mirrors the two SR tables the pipeline needs:
//
//   - food descriptions ("Butter, salted" — comma-separated terms with
//     decreasing importance, Table II of the paper) with per-100 g
//     nutrient profiles, and
//   - per-unit gram weights (Table IV of the paper: "Butter,salted | 1.0 |
//     pat | 5.0", including noisy unit strings like `pat (1" sq, 1/3"
//     high)`).
//
// Row order is significant: §II-B(i) breaks residual matching ties by
// taking the first match "because of the way the descriptions have been
// indexed within USDA-SR Database". The embedded seed database (seed.go)
// preserves SR's NDB-number ordering so those tie-breaks reproduce.
package usda

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/units"
)

// Weight is one row of the SR weight table: Amount of Unit weighs Grams.
// Unit holds the raw SR spelling, which can be noisy (`pat (1" sq, 1/3"
// high)`); unit cleaning happens downstream, exactly as in the paper.
type Weight struct {
	Seq    int     // ordinal within the food's weight list
	Amount float64 // e.g. 1.0
	Unit   string  // raw unit text, e.g. "tbsp", `pat (1" sq, 1/3" high)`
	Grams  float64 // weight of Amount×Unit in grams
}

// GramsPerOne returns the gram weight of exactly one Unit.
func (w Weight) GramsPerOne() float64 {
	if w.Amount == 0 {
		return 0
	}
	return w.Grams / w.Amount
}

// Food is one SR food item as a plain row: the input NewDB takes, and
// what Row.Food and DB.Foods build back out of a table (for merges,
// exports and tests). Reads on the serving path go through Row instead.
type Food struct {
	// NDB is the SR identifier. Foods are kept sorted by NDB; the first
	// food group digit pair encodes the SR category (01 dairy/egg,
	// 02 spices, 09 fruits, 11 vegetables, …).
	NDB int
	// Desc is the comma-separated SR description, e.g.
	// "Milk, reduced fat, fluid, 2% milkfat, with added vitamin A".
	Desc string
	// Per100g holds the nutrient profile of 100 g of this food.
	Per100g nutrition.Profile
	// Weights lists the available unit→gram conversions for this food.
	Weights []Weight
}

// Columns is a DB's storage: one column per field, with every string an
// (offset, length) range of one shared blob. NewDB builds the columns in
// memory; the baked-image loader (internal/usda/bake) casts an image's
// sections to the same columns, so a table has one representation
// whatever its source, and a loaded image is its only resident copy.
// FromColumns checks every range and offset before any Row reads them.
type Columns struct {
	// Per food, in strictly ascending NDB order.
	NDB         []int32
	DescOff     []uint32 // Desc is Blob[DescOff[i] : DescOff[i]+DescLen[i]]
	DescLen     []uint32
	Per100g     []nutrition.Profile
	WeightCount []uint32 // the food's weight rows, consecutive below

	// Per weight row, food-major.
	Seq      []int32
	Amount   []float64
	Grams    []float64
	UnitOff  []uint32 // the raw SR spelling
	UnitLen  []uint32
	CanonOff []uint32 // its canonical unit name (units.Normalize)
	CanonLen []uint32
	Known    []byte // nonzero when the spelling names a known unit

	// Blob holds every string the ranges above point into.
	Blob string
}

// DB is an immutable, NDB-ordered food composition database.
type DB struct {
	c Columns
	// wStart is the prefix sum of c.WeightCount: food i's weight rows
	// are wStart[i]:wStart[i+1]. It is the only per-food array a table
	// keeps beyond its columns.
	wStart []uint32
}

// Errors returned by NewDB and FromColumns validation.
var (
	ErrDuplicateNDB = errors.New("usda: duplicate NDB number")
	ErrBadFood      = errors.New("usda: invalid food row")
)

// FromColumns adopts c as a DB without copying it. It checks that the
// columns have consistent lengths, that the weight counts sum to the
// weight rows, that NDBs are positive and strictly ascending, and that
// every description, unit and canonical-unit range lies inside the
// blob — everything Row's accessors index by — so no accessor can fault
// on a table FromColumns accepted. The caller must not modify c's
// slices afterwards.
func FromColumns(c Columns) (*DB, error) {
	n, nw := len(c.NDB), len(c.Seq)
	if len(c.DescOff) != n || len(c.DescLen) != n || len(c.Per100g) != n || len(c.WeightCount) != n {
		return nil, fmt.Errorf("%w: per-food columns disagree on %d foods", ErrBadFood, n)
	}
	if len(c.Amount) != nw || len(c.Grams) != nw || len(c.UnitOff) != nw || len(c.UnitLen) != nw ||
		len(c.CanonOff) != nw || len(c.CanonLen) != nw || len(c.Known) != nw {
		return nil, fmt.Errorf("%w: weight columns disagree on %d rows", ErrBadFood, nw)
	}
	inBlob := func(off, ln uint32) bool { return uint64(off)+uint64(ln) <= uint64(len(c.Blob)) }
	wStart := make([]uint32, n+1)
	sum := uint64(0)
	for i, ndb := range c.NDB {
		if ndb <= 0 {
			return nil, fmt.Errorf("%w: NDB %d", ErrBadFood, ndb)
		}
		if i > 0 && ndb <= c.NDB[i-1] {
			return nil, fmt.Errorf("%w: NDB %d out of order after %d", ErrBadFood, ndb, c.NDB[i-1])
		}
		if !inBlob(c.DescOff[i], c.DescLen[i]) {
			return nil, fmt.Errorf("%w: NDB %d description beyond blob of %d bytes", ErrBadFood, ndb, len(c.Blob))
		}
		if sum += uint64(c.WeightCount[i]); sum > uint64(nw) {
			return nil, fmt.Errorf("%w: weight counts exceed %d rows", ErrBadFood, nw)
		}
		wStart[i+1] = uint32(sum)
	}
	if sum != uint64(nw) {
		return nil, fmt.Errorf("%w: weight counts sum to %d, columns carry %d rows", ErrBadFood, sum, nw)
	}
	for k := 0; k < nw; k++ {
		if !inBlob(c.UnitOff[k], c.UnitLen[k]) || !inBlob(c.CanonOff[k], c.CanonLen[k]) {
			return nil, fmt.Errorf("%w: weight row %d unit beyond blob of %d bytes", ErrBadFood, k, len(c.Blob))
		}
	}
	return &DB{c: c, wStart: wStart}, nil
}

// NewDB validates a list of foods and builds their columns. The input
// is sorted by NDB so iteration order — and therefore §II-B(i)
// first-match tie-breaking — is deterministic regardless of
// construction order. Every weight row's unit spelling is resolved with
// units.Normalize once, here, so lookups never re-clean raw SR spellings
// (`pat (1" sq, 1/3" high)` tokenizes on every Normalize call).
func NewDB(foods []Food) (*DB, error) {
	sorted := make([]*Food, len(foods))
	nw := 0
	for i := range foods {
		sorted[i] = &foods[i]
		nw += len(foods[i].Weights)
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].NDB < sorted[j].NDB })

	n := len(sorted)
	c := Columns{
		NDB: make([]int32, n), DescOff: make([]uint32, n), DescLen: make([]uint32, n),
		Per100g: make([]nutrition.Profile, n), WeightCount: make([]uint32, n),
		Seq: make([]int32, 0, nw), Amount: make([]float64, 0, nw), Grams: make([]float64, 0, nw),
		UnitOff: make([]uint32, 0, nw), UnitLen: make([]uint32, 0, nw),
		CanonOff: make([]uint32, 0, nw), CanonLen: make([]uint32, 0, nw), Known: make([]byte, 0, nw),
	}
	var blob BlobBuilder
	for i, f := range sorted {
		switch {
		case f.NDB <= 0 || f.NDB > math.MaxInt32:
			return nil, fmt.Errorf("%w: NDB %d", ErrBadFood, f.NDB)
		case f.Desc == "":
			return nil, fmt.Errorf("%w: NDB %d has empty description", ErrBadFood, f.NDB)
		case !f.Per100g.Valid():
			return nil, fmt.Errorf("%w: NDB %d has invalid nutrient profile", ErrBadFood, f.NDB)
		case i > 0 && f.NDB == sorted[i-1].NDB:
			return nil, fmt.Errorf("%w: %d", ErrDuplicateNDB, f.NDB)
		}
		c.NDB[i] = int32(f.NDB)
		c.DescOff[i], c.DescLen[i] = blob.Add(f.Desc)
		c.Per100g[i] = f.Per100g
		c.WeightCount[i] = uint32(len(f.Weights))
		for _, w := range f.Weights {
			if w.Amount <= 0 || w.Grams <= 0 || w.Unit == "" {
				return nil, fmt.Errorf("%w: NDB %d has invalid weight row %+v", ErrBadFood, f.NDB, w)
			}
			name, known := units.Normalize(w.Unit)
			uo, ul := blob.Add(w.Unit)
			co, cl := blob.Add(name)
			k := byte(0)
			if known {
				k = 1
			}
			c.Seq = append(c.Seq, int32(w.Seq))
			c.Amount = append(c.Amount, w.Amount)
			c.Grams = append(c.Grams, w.Grams)
			c.UnitOff, c.UnitLen = append(c.UnitOff, uo), append(c.UnitLen, ul)
			c.CanonOff, c.CanonLen = append(c.CanonOff, co), append(c.CanonLen, cl)
			c.Known = append(c.Known, k)
		}
	}
	c.Blob = blob.String()
	return FromColumns(c)
}

// BlobBuilder accumulates a deduplicated string blob, the string store
// of Columns and of a baked image. Unit spellings and canonical names
// repeat heavily across foods, so each is stored once. The zero value
// is ready to use.
type BlobBuilder struct {
	b    strings.Builder
	offs map[string]uint32
}

// Add returns the (offset, length) of s in the blob, appending it on
// first sight.
func (bb *BlobBuilder) Add(s string) (uint32, uint32) {
	if off, ok := bb.offs[s]; ok {
		return off, uint32(len(s))
	}
	if bb.offs == nil {
		bb.offs = make(map[string]uint32)
	}
	off := uint32(bb.b.Len())
	bb.offs[s] = off
	bb.b.WriteString(s)
	return off, uint32(len(s))
}

// String returns the blob built so far.
func (bb *BlobBuilder) String() string { return bb.b.String() }

// MustNewDB panics on validation failure; for static seed tables.
func MustNewDB(foods []Food) *DB {
	db, err := NewDB(foods)
	if err != nil {
		panic(err)
	}
	return db
}

// Len returns the number of foods.
func (db *DB) Len() int { return len(db.c.NDB) }

// At returns the i-th food in NDB order.
func (db *DB) At(i int) Row {
	_ = db.c.NDB[i] // out-of-range positions fail here, not on first read
	return Row{db: db, i: i}
}

// ByNDB looks a food up by its NDB number: a binary search over the
// ascending NDB column.
func (db *DB) ByNDB(ndb int) (Row, bool) {
	if ndb <= 0 || ndb > math.MaxInt32 {
		return Row{}, false
	}
	i, ok := slices.BinarySearch(db.c.NDB, int32(ndb))
	if !ok {
		return Row{}, false
	}
	return Row{db: db, i: i}, true
}

// Foods builds the NDB-ordered rows of the table, for merging tables
// and exporting them. Their strings share the table's blob.
func (db *DB) Foods() []Food {
	out := make([]Food, db.Len())
	for i := range out {
		out[i] = db.At(i).Food()
	}
	return out
}

// Row is one food of a DB, read in place from the table's columns: a
// (table, position) pair that At and ByNDB return by value. Its methods
// allocate nothing (except Food, which builds a row struct), and the
// strings they return view the table's blob.
type Row struct {
	db *DB
	i  int
}

// NDB returns the food's SR identifier.
func (r Row) NDB() int { return int(r.db.c.NDB[r.i]) }

// Desc returns the comma-separated SR description.
func (r Row) Desc() string { return r.db.c.str(r.db.c.DescOff[r.i], r.db.c.DescLen[r.i]) }

// Per100g returns the nutrient profile of 100 g of the food. It points
// into the table's nutrient column, which is read-only; the pointer
// stays valid, and keeps the table alive, for as long as it is held.
func (r Row) Per100g() *nutrition.Profile { return &r.db.c.Per100g[r.i] }

// NumWeights returns the number of rows in the food's weight table.
func (r Row) NumWeights() int { return int(r.db.wStart[r.i+1] - r.db.wStart[r.i]) }

// Weight returns row j of the food's weight table.
func (r Row) Weight(j int) Weight {
	k, c := r.weight(j), &r.db.c
	return Weight{Seq: int(c.Seq[k]), Amount: c.Amount[k], Unit: c.str(c.UnitOff[k], c.UnitLen[k]), Grams: c.Grams[k]}
}

// WeightUnit returns the canonical unit name of weight row j and whether
// the row's raw spelling resolves to a known unit: units.Normalize of
// the row's Unit, resolved once when the table was built.
func (r Row) WeightUnit(j int) (string, bool) {
	k, c := r.weight(j), &r.db.c
	return c.str(c.CanonOff[k], c.CanonLen[k]), c.Known[k] != 0
}

// GramsForUnit returns the gram weight of one canonicalUnit of the food,
// consulting only the food's own weight table (the "exact" tier of the
// §II-C fallback chain). An exact unit-name row wins; failing that, any
// Size row satisfies a Size request, per the paper's small=medium=large
// equivalence ("All 3 were considered equivalent because of ambiguity
// between sizes").
func (r Row) GramsForUnit(canonicalUnit string) (float64, bool) {
	equivalent := -1
	for j, n := 0, r.NumWeights(); j < n; j++ {
		name, known := r.WeightUnit(j)
		if !known {
			continue
		}
		if name == canonicalUnit {
			return r.Weight(j).GramsPerOne(), true
		}
		if equivalent < 0 && units.Equivalent(name, canonicalUnit) {
			equivalent = j
		}
	}
	if equivalent >= 0 {
		return r.Weight(equivalent).GramsPerOne(), true
	}
	return 0, false
}

// Food builds the food's row struct.
func (r Row) Food() Food {
	f := Food{NDB: r.NDB(), Desc: r.Desc(), Per100g: *r.Per100g()}
	if n := r.NumWeights(); n > 0 {
		f.Weights = make([]Weight, n)
		for j := range f.Weights {
			f.Weights[j] = r.Weight(j)
		}
	}
	return f
}

// weight returns the column index of the food's weight row j.
func (r Row) weight(j int) int {
	lo, hi := r.db.wStart[r.i], r.db.wStart[r.i+1]
	if j < 0 || j >= int(hi-lo) {
		panic("usda: weight row index out of range")
	}
	return int(lo) + j
}

// str views one checked (offset, length) range of the blob.
func (c *Columns) str(off, ln uint32) string { return c.Blob[off : off+ln] }

// csv column layout for the food table.
const foodCols = 13 // ndb, desc, 11 nutrients

// WriteCSV serializes the database as two concatenated CSV sections in one
// stream: a food section and a weight section, separated by a blank
// record. The format round-trips through ReadCSV.
func (db *DB) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := 0; i < db.Len(); i++ {
		f := db.At(i)
		p := f.Per100g()
		rec := []string{
			strconv.Itoa(f.NDB()), f.Desc(),
			ff(p.EnergyKcal), ff(p.ProteinG), ff(p.FatG), ff(p.CarbsG),
			ff(p.FiberG), ff(p.SugarG), ff(p.CalciumMg), ff(p.IronMg),
			ff(p.SodiumMg), ff(p.VitCMg), ff(p.CholMg),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("usda: writing food %d: %w", f.NDB(), err)
		}
	}
	if err := cw.Write([]string{"WEIGHTS"}); err != nil {
		return err
	}
	for i := 0; i < db.Len(); i++ {
		f := db.At(i)
		for j := 0; j < f.NumWeights(); j++ {
			wt := f.Weight(j)
			rec := []string{
				strconv.Itoa(f.NDB()), strconv.Itoa(wt.Seq),
				ff(wt.Amount), wt.Unit, ff(wt.Grams),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("usda: writing weight for %d: %w", f.NDB(), err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the WriteCSV format back into a DB.
func ReadCSV(r io.Reader) (*DB, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var foods []Food
	index := map[int]int{}
	inWeights := false
	pf := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("usda: reading csv: %w", err)
		}
		if len(rec) == 1 && rec[0] == "WEIGHTS" {
			inWeights = true
			continue
		}
		if !inWeights {
			if len(rec) != foodCols {
				return nil, fmt.Errorf("usda: food row has %d fields, want %d", len(rec), foodCols)
			}
			ndb, err := strconv.Atoi(rec[0])
			if err != nil {
				return nil, fmt.Errorf("usda: bad NDB %q: %w", rec[0], err)
			}
			var vals [11]float64
			for i := 0; i < 11; i++ {
				if vals[i], err = pf(rec[2+i]); err != nil {
					return nil, fmt.Errorf("usda: bad nutrient %q in NDB %d: %w", rec[2+i], ndb, err)
				}
			}
			index[ndb] = len(foods)
			foods = append(foods, Food{
				NDB:  ndb,
				Desc: rec[1],
				Per100g: nutrition.Profile{
					EnergyKcal: vals[0], ProteinG: vals[1], FatG: vals[2],
					CarbsG: vals[3], FiberG: vals[4], SugarG: vals[5],
					CalciumMg: vals[6], IronMg: vals[7], SodiumMg: vals[8],
					VitCMg: vals[9], CholMg: vals[10],
				},
			})
			continue
		}
		if len(rec) != 5 {
			return nil, fmt.Errorf("usda: weight row has %d fields, want 5", len(rec))
		}
		ndb, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("usda: bad weight NDB %q: %w", rec[0], err)
		}
		i, ok := index[ndb]
		if !ok {
			return nil, fmt.Errorf("usda: weight row references unknown NDB %d", ndb)
		}
		seq, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("usda: bad weight seq %q: %w", rec[1], err)
		}
		amt, err1 := pf(rec[2])
		grams, err2 := pf(rec[4])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("usda: bad weight numbers in NDB %d", ndb)
		}
		foods[i].Weights = append(foods[i].Weights, Weight{
			Seq: seq, Amount: amt, Unit: rec[3], Grams: grams,
		})
	}
	return NewDB(foods)
}

// normalizeUnit resolves a raw weight-row unit string to its canonical
// unit, re-exported for tests and tools that audit weight-table
// resolvability.
func normalizeUnit(raw string) (string, bool) { return units.Normalize(raw) }
