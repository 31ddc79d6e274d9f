package sr

// SR26 writer: renders a database back into the three-table ASCII
// distribution format. The container has no real SR26 release, so the
// fixture images CI bakes and the parse-path benchmarks both start from
// Write over the seed/synthetic databases; the round-trip property
// Parse(Write(db)) == db is pinned by the package tests.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"nutriprofile/internal/usda"
)

// srNutrients is the (nutrient number, profile index) emission order —
// the inverse of nutrientField.
var srNutrients = [11]int{208, 203, 204, 205, 291, 269, 301, 303, 307, 401, 601}

// latin1Encode renders a UTF-8 string as ISO-8859-1 bytes; codepoints
// above U+00FF degrade to '?' (the SR character set cannot carry them).
func latin1Encode(b []byte, s string) []byte {
	for _, r := range s {
		if r > 0xFF {
			r = '?'
		}
		b = append(b, byte(r))
	}
	return b
}

func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Write renders db as the three SR26 tables: `^`-separated,
// `~`-quoted, CRLF-terminated, Latin-1 encoded.
func Write(foodDes, nutData, weight io.Writer, db *usda.DB) error {
	fd := bufio.NewWriter(foodDes)
	nd := bufio.NewWriter(nutData)
	wt := bufio.NewWriter(weight)
	var line []byte

	appendQuoted := func(b []byte, s string) []byte {
		b = append(b, '~')
		b = latin1Encode(b, s)
		return append(b, '~')
	}

	for i := 0; i < db.Len(); i++ {
		f := db.At(i)
		ndb := fmt.Sprintf("%05d", f.NDB())

		// FOOD_DES: NDB_No^FdGrp_Cd^Long_Desc^Shrt_Desc^ComName^
		// ManufacName^Survey^Ref_desc^Refuse^SciName^N_Factor^
		// Pro_Factor^Fat_Factor^CHO_Factor
		line = line[:0]
		line = appendQuoted(line, ndb)
		line = append(line, '^')
		line = appendQuoted(line, "0100")
		line = append(line, '^')
		line = appendQuoted(line, f.Desc())
		line = append(line, '^')
		line = appendQuoted(line, f.Desc())
		line = append(line, "^~~^~~^~~^~~^0^~~^^^^"...) // blank optional fields
		line = append(line, "\r\n"...)
		if _, err := fd.Write(line); err != nil {
			return err
		}

		// NUT_DATA: NDB_No^Nutr_No^Nutr_Val^Num_Data_Pts^Std_Error^
		// Src_Cd^Deriv_Cd^Ref_NDB_No^Add_Nutr_Mark^Num_Studies^Min^Max^
		// DF^Low_EB^Up_EB^Stat_cmt^AddMod_Date^CC
		p := f.Per100g()
		vals := [11]float64{
			p.EnergyKcal, p.ProteinG, p.FatG, p.CarbsG, p.FiberG, p.SugarG,
			p.CalciumMg, p.IronMg, p.SodiumMg, p.VitCMg, p.CholMg,
		}
		for slot, no := range srNutrients {
			v := vals[slot]
			if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				continue // SR omits rows for unmeasured nutrients
			}
			line = line[:0]
			line = appendQuoted(line, ndb)
			line = append(line, '^')
			line = appendQuoted(line, fmt.Sprintf("%03d", no))
			line = append(line, '^')
			line = append(line, ff(v)...)
			line = append(line, "^0^^~4~^~~^~~^~~^^^^^^^~~^~~^~~"...)
			line = append(line, "\r\n"...)
			if _, err := nd.Write(line); err != nil {
				return err
			}
		}

		// WEIGHT: NDB_No^Seq^Amount^Msre_Desc^Gm_Wgt^Num_Data_Pts^Std_Dev
		for j := 0; j < f.NumWeights(); j++ {
			w := f.Weight(j)
			line = line[:0]
			line = appendQuoted(line, ndb)
			line = append(line, '^')
			line = appendQuoted(line, strconv.Itoa(w.Seq))
			line = append(line, '^')
			line = append(line, ff(w.Amount)...)
			line = append(line, '^')
			line = appendQuoted(line, w.Unit)
			line = append(line, '^')
			line = append(line, ff(w.Grams)...)
			line = append(line, "^^"...)
			line = append(line, "\r\n"...)
			if _, err := wt.Write(line); err != nil {
				return err
			}
		}
	}
	if err := fd.Flush(); err != nil {
		return err
	}
	if err := nd.Flush(); err != nil {
		return err
	}
	return wt.Flush()
}
