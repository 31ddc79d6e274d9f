package bake

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nutriprofile/internal/match"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/usda/sr"
)

// openFixtures writes one table in every on-disk form Open reads — an
// SR26 release directory, a CSV file and a baked image — and returns
// the table with the three paths.
func openFixtures(t *testing.T) (src *usda.DB, srDir, csvPath, imgPath string) {
	t.Helper()
	src = usda.Merged(40, 3)
	dir := t.TempDir()

	srDir = filepath.Join(dir, "sr26")
	if err := os.Mkdir(srDir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := make([]*os.File, 3)
	for i, name := range []string{"FOOD_DES.txt", "NUT_DATA.txt", "WEIGHT.txt"} {
		f, err := os.Create(filepath.Join(srDir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	if err := sr.Write(files[0], files[1], files[2], src); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	csvPath = filepath.Join(dir, "table.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Named like a table so the test also shows that a path is a path.
	imgPath = filepath.Join(dir, "seed")
	if err := WriteFile(imgPath, src, nil); err != nil {
		t.Fatal(err)
	}
	return src, srDir, csvPath, imgPath
}

// TestOpenEveryForm opens each spec form and checks that it yields its
// source table and exactly the index match.BuildIndex computes for it.
func TestOpenEveryForm(t *testing.T) {
	fixture, srDir, csvPath, imgPath := openFixtures(t)
	img, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		spec  string
		want  *usda.DB
		image bool // Bytes and CRC describe an image
		sr    bool // SR carries a parse report
	}{
		{"seed", "seed", usda.Seed(), false, false},
		{"regional", "regional", usda.WithRegional(), false, false},
		{"fao", "fao", usda.Regional(), false, false},
		{"synth", "synth:25", usda.Merged(25, 1), false, false},
		{"sr", "sr:" + srDir, fixture, false, true},
		{"csv", "csv:" + csvPath, fixture, false, false},
		{"image", imgPath, fixture, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ld, err := Open(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ld.DB.Foods(), tc.want.Foods()) {
				t.Fatalf("Foods() differ from the source table's (%d foods, want %d)", ld.DB.Len(), tc.want.Len())
			}
			if !reflect.DeepEqual(ld.Index, match.BuildIndex(tc.want)) {
				t.Fatal("Index differs from match.BuildIndex of the source table")
			}
			if tc.image {
				if ld.Bytes != len(img) || ld.CRC == 0 {
					t.Fatalf("image identity Bytes=%d CRC=%08x, want %d bytes and a CRC", ld.Bytes, ld.CRC, len(img))
				}
			} else if ld.Bytes != 0 || ld.CRC != 0 {
				t.Fatalf("in-memory table reports image identity Bytes=%d CRC=%08x", ld.Bytes, ld.CRC)
			}
			if got := ld.SR != nil; got != tc.sr {
				t.Fatalf("SR report present = %v, want %v", got, tc.sr)
			}
			if tc.sr && ld.SR.Foods != tc.want.Len() {
				t.Fatalf("SR report counts %d foods, want %d", ld.SR.Foods, tc.want.Len())
			}
		})
	}
}

// TestOpenErrors: a spec that names no table fails, and a spec is used
// exactly as given — no case folding or trimming turns a file name into
// a table name.
func TestOpenErrors(t *testing.T) {
	_, _, csvPath, _ := openFixtures(t)
	missing := filepath.Join(t.TempDir(), "absent")
	for _, tc := range []struct {
		spec string
		want error // nil: any error
	}{
		{"merged", fs.ErrNotExist},
		{"SEED", fs.ErrNotExist},
		{" seed", fs.ErrNotExist},
		{"Regional", fs.ErrNotExist},
		{"", fs.ErrNotExist},
		{"synth:0", nil},
		{"synth:-3", nil},
		{"synth:many", nil},
		{"synth:", nil},
		{"sr:" + missing, fs.ErrNotExist},
		{"csv:" + missing, fs.ErrNotExist},
		{missing, fs.ErrNotExist},
		{csvPath, ErrBadMagic}, // a bare path is an image
	} {
		ld, err := Open(tc.spec)
		if err == nil {
			t.Errorf("Open(%q) = %d foods, want an error", tc.spec, ld.DB.Len())
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("Open(%q) error %v, want %v", tc.spec, err, tc.want)
		}
	}
}
