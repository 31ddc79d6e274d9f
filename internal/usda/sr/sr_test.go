package sr

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"nutriprofile/internal/usda"
)

func TestSplitFields(t *testing.T) {
	cases := []struct {
		name string
		line string
		want []string
		err  error
	}{
		{name: "bare", line: "a^b^c", want: []string{"a", "b", "c"}},
		{name: "quoted", line: "~x~^y", want: []string{"x", "y"}},
		{name: "caret inside quotes", line: "~a^b~^c", want: []string{"a^b", "c"}},
		{name: "empty quoted", line: "~~", want: []string{""}},
		{name: "empty line is one empty field", line: "", want: []string{""}},
		{name: "empty bare field", line: "a^^b", want: []string{"a", "", "b"}},
		{name: "trailing separator", line: "a^", want: []string{"a", ""}},
		{name: "quoted at end", line: "a^~x~", want: []string{"a", "x"}},
		{name: "all quoted", line: "~a~^~b~^~c~", want: []string{"a", "b", "c"}},
		{name: "unterminated quote", line: "~oops", err: ErrUnterminatedQuote},
		{name: "unterminated in later field", line: "a^~oops", err: ErrUnterminatedQuote},
		{name: "junk after closing quote", line: "~x~junk^y", err: ErrQuoteJunk},
		{name: "stray quote in bare field", line: "ab~cd^e", err: ErrQuoteJunk},
	}
	var scratch []string
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := splitFields(tc.line, scratch)
			if tc.err != nil {
				if !errors.Is(err, tc.err) {
					t.Fatalf("err = %v, want %v", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("fields = %q, want %q", got, tc.want)
			}
		})
	}
}

// fixture builds the three tables from line slices, CRLF-terminated —
// the framing real SR26 releases use.
func fixture(fd, nd, wt []string) Files {
	join := func(lines []string) *strings.Reader {
		return strings.NewReader(strings.Join(lines, "\r\n") + "\r\n")
	}
	return Files{FoodDes: join(fd), NutData: join(nd), Weight: join(wt)}
}

const (
	foodDesTail = "^~~^~~^~~^~~^0^~~^^^^"           // fields 5–14, all blank
	nutDataTail = "^0^^~4~^~~^~~^~~^^^^^^^~~^~~^~~" // fields 4–18, all blank
)

func TestParseMinimalRelease(t *testing.T) {
	files := fixture(
		[]string{
			"~01001~^~0100~^~Butter, salted~^~BUTTER~" + foodDesTail,
			// Latin-1 high byte: 0xE9 is é.
			"~01002~^~0100~^~Cr\xe8me fra\xeeche~^~CREME~" + foodDesTail,
			"", // blank lines are skipped
		},
		[]string{
			"~01001~^~208~^717" + nutDataTail,
			"~01001~^~203~^0.85" + nutDataTail,
			"~01001~^~999~^42" + nutDataTail, // untracked nutrient: counted, skipped
			"~01002~^~208~^380" + nutDataTail,
		},
		[]string{
			"~01001~^~1~^1^~cup~^227^^",
			"~01001~^~2~^1^~tbsp~^14.2^12^0.5", // 7 fields with data points
			"~01001~^~3~^0^~pat~^0^^",          // zero amount+grams: skipped
			"~01002~^~1~^1^~cup~^240",          // 5-field short form
		},
	)
	db, rep, err := Parse(files)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
	want := Report{Foods: 2, NutrientRows: 3, UnknownNutrients: 1, WeightRows: 3, SkippedWeights: 1}
	if *rep != want {
		t.Fatalf("report = %+v, want %+v", *rep, want)
	}

	row, ok := db.ByNDB(1001)
	if !ok {
		t.Fatal("NDB 1001 missing")
	}
	butter := row.Food()
	if butter.Desc != "Butter, salted" {
		t.Fatalf("desc %q", butter.Desc)
	}
	if butter.Per100g.EnergyKcal != 717 || butter.Per100g.ProteinG != 0.85 {
		t.Fatalf("profile %+v", butter.Per100g)
	}
	if len(butter.Weights) != 2 || butter.Weights[1].Grams != 14.2 {
		t.Fatalf("weights %+v", butter.Weights)
	}

	creme, _ := db.ByNDB(1002)
	if creme.Desc() != "Crème fraîche" {
		t.Fatalf("Latin-1 transcoding: desc %q", creme.Desc())
	}
}

func TestParseErrors(t *testing.T) {
	goodFD := "~01001~^~0100~^~Butter~^~BUTTER~" + foodDesTail
	cases := []struct {
		name     string
		fd       []string
		nd       []string
		wt       []string
		sentinel error
		file     string
	}{
		{
			name:     "food_des truncated line",
			fd:       []string{"~01001~^~0100~^~Butter~"},
			sentinel: ErrFieldCount, file: "FOOD_DES.txt",
		},
		{
			name:     "food_des bad ndb",
			fd:       []string{"~01x01~^~0100~^~Butter~^~BUTTER~" + foodDesTail},
			sentinel: ErrBadNumber, file: "FOOD_DES.txt",
		},
		{
			name:     "food_des duplicate ndb",
			fd:       []string{goodFD, goodFD},
			sentinel: ErrDuplicate, file: "FOOD_DES.txt",
		},
		{
			name:     "food_des unterminated quote",
			fd:       []string{"~01001"},
			sentinel: ErrUnterminatedQuote, file: "FOOD_DES.txt",
		},
		{
			name:     "food_des junk after quote",
			fd:       []string{"~01001~x^~0100~^~Butter~^~BUTTER~" + foodDesTail},
			sentinel: ErrQuoteJunk, file: "FOOD_DES.txt",
		},
		{
			name:     "nut_data wrong field count",
			fd:       []string{goodFD},
			nd:       []string{"~01001~^~208~^717"},
			sentinel: ErrFieldCount, file: "NUT_DATA.txt",
		},
		{
			name:     "nut_data unknown ndb",
			fd:       []string{goodFD},
			nd:       []string{"~09999~^~208~^717" + nutDataTail},
			sentinel: ErrUnknownNDB, file: "NUT_DATA.txt",
		},
		{
			name:     "nut_data negative value",
			fd:       []string{goodFD},
			nd:       []string{"~01001~^~208~^-5" + nutDataTail},
			sentinel: ErrBadNumber, file: "NUT_DATA.txt",
		},
		{
			name:     "nut_data unparsable value",
			fd:       []string{goodFD},
			nd:       []string{"~01001~^~208~^seven" + nutDataTail},
			sentinel: ErrBadNumber, file: "NUT_DATA.txt",
		},
		{
			name:     "weight unknown ndb",
			fd:       []string{goodFD},
			wt:       []string{"~09999~^~1~^1^~cup~^227^^"},
			sentinel: ErrUnknownNDB, file: "WEIGHT.txt",
		},
		{
			name:     "weight bad seq",
			fd:       []string{goodFD},
			wt:       []string{"~01001~^~x~^1^~cup~^227^^"},
			sentinel: ErrBadNumber, file: "WEIGHT.txt",
		},
		{
			name:     "weight too many fields",
			fd:       []string{goodFD},
			wt:       []string{"~01001~^~1~^1^~cup~^227^^^^"},
			sentinel: ErrFieldCount, file: "WEIGHT.txt",
		},
		{
			name:     "weight non-finite grams",
			fd:       []string{goodFD},
			wt:       []string{"~01001~^~1~^1^~cup~^NaN^^"},
			sentinel: ErrBadNumber, file: "WEIGHT.txt",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Parse(fixture(tc.fd, tc.nd, tc.wt))
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want %v", err, tc.sentinel)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("err %T is not a *ParseError", err)
			}
			if pe.File != tc.file || pe.Line < 1 {
				t.Fatalf("ParseError locates %s:%d, want %s:>=1", pe.File, pe.Line, tc.file)
			}
		})
	}
}

// TestRoundTrip pins the property the fixture pipeline and the load
// benchmarks rely on: rendering a database to the SR26 tables and
// parsing them back reproduces it exactly.
func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   *usda.DB
	}{
		{"seed", usda.Seed()},
		{"merged synthetic", usda.Merged(500, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fd, nd, wt bytes.Buffer
			if err := Write(&fd, &nd, &wt, tc.db); err != nil {
				t.Fatal(err)
			}
			got, rep, err := Parse(Files{FoodDes: &fd, NutData: &nd, Weight: &wt})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Foods != tc.db.Len() {
				t.Fatalf("report foods %d, want %d", rep.Foods, tc.db.Len())
			}
			if !reflect.DeepEqual(got, tc.db) {
				for i := 0; i < tc.db.Len() && i < got.Len(); i++ {
					if a, b := got.At(i).Food(), tc.db.At(i).Food(); !reflect.DeepEqual(a, b) {
						t.Fatalf("food %d differs:\n got %+v\nwant %+v", i, a, b)
					}
				}
				t.Fatal("databases differ")
			}
		})
	}
}
