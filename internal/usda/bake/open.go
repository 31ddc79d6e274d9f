package bake

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"

	"nutriprofile/internal/match"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/usda/sr"
)

// Open resolves a table spec, the value of every CLI's -db, so a name
// means the same table in every command (DESIGN.md §13):
//
//	seed       the built-in SR seed table
//	regional   the seed plus the FAO-style regional supplement
//	fao        the regional supplement alone
//	synth:N    the seed plus N synthetic foods (usda.Merged(N, 1))
//	sr:DIR     a USDA SR26 ASCII release (FOOD_DES.txt, NUT_DATA.txt, WEIGHT.txt)
//	csv:FILE   a table in the usda CSV interchange format
//	anything else  a baked image path, read with LoadFile
//
// The spec is used exactly as given: no case folding or trimming, so
// "SEED" is a file name. A table built in memory gets its index from
// match.BuildIndex and has Bytes and CRC zero; an sr: table carries its
// parse report in SR.
func Open(spec string) (*Loaded, error) {
	ld := &Loaded{}
	var err error
	switch kind, arg, _ := strings.Cut(spec, ":"); {
	case spec == "seed":
		ld.DB = usda.Seed()
	case spec == "regional":
		ld.DB = usda.WithRegional()
	case spec == "fao":
		ld.DB = usda.Regional()
	case kind == "synth":
		n, aerr := strconv.Atoi(arg)
		if aerr != nil || n <= 0 {
			return nil, fmt.Errorf("bake: table %s: synth:N needs a positive food count", spec)
		}
		ld.DB = usda.Merged(n, 1)
	case kind == "sr":
		ld.DB, ld.SR, err = sr.ParseDir(arg)
	case kind == "csv":
		var f *os.File
		if f, err = os.Open(arg); err == nil {
			ld.DB, err = usda.ReadCSV(f)
			f.Close()
		}
	default:
		if ld, err = LoadFile(spec); errors.Is(err, fs.ErrNotExist) {
			err = fmt.Errorf("%w; not seed, regional, fao, synth:N, sr:DIR or csv:FILE either", err)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("bake: table %s: %w", spec, err)
	}
	if ld.Index == nil {
		ld.Index = match.BuildIndex(ld.DB)
	}
	return ld, nil
}
