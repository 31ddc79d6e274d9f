package textutil

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestFolderLowerMatchesToLower pins Folder.lower (nil and warm) to
// strings.ToLower on arbitrary input.
func TestFolderLowerMatchesToLower(t *testing.T) {
	var f Folder
	check := func(s string) bool {
		want := strings.ToLower(s)
		if (*Folder)(nil).lower(s) != want {
			return false
		}
		// Twice into the same buffer: the second lowering must leave the
		// first intact, as a phrase's later tokens leave its earlier ones.
		first := f.lower(s)
		return f.lower(s) == want && first == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFolderLowerZeroCopy: already-lowercase input, accented or not,
// must come back as the identical string without touching the buffer.
func TestFolderLowerZeroCopy(t *testing.T) {
	var f Folder
	for _, s := range []string{"", "flour", "1/2", "all-purpose", "crème"} {
		got := f.lower(s)
		if got != s || unsafe.StringData(got) != unsafe.StringData(s) {
			t.Errorf("lower(%q) = %q, want the input itself", s, got)
		}
	}
	if len(f.lowered) != 0 {
		t.Errorf("lowercase inputs were copied into the buffer: %q", f.lowered)
	}
}

// TestAppendTokensFoldedMatchesTokenize pins the folded tokenizer (the
// scratch arena's entry point) to Tokenize on arbitrary input, with the
// folder reused across calls.
func TestAppendTokensFoldedMatchesTokenize(t *testing.T) {
	var f Folder
	var dst []string
	check := func(s string) bool {
		want := Tokenize(s)
		dst = AppendTokensFolded(dst[:0], s, &f)
		if len(want) == 0 && len(dst) == 0 {
			return true
		}
		return reflect.DeepEqual(dst, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, s := range []string{
		"2 Cups FLOUR", "½ Cup Sugar", "Boiling Water", "1 (8 OZ) Package",
	} {
		if !check(s) {
			t.Errorf("AppendTokensFolded(%q) = %q, want %q", s, dst, Tokenize(s))
		}
	}
}

// TestStripNonAlphaCleanFastPath: already-clean input must come back as
// the identical string (the zero-copy fast path).
func TestStripNonAlphaCleanFastPath(t *testing.T) {
	for _, s := range []string{"", "flour", "cup"} {
		if got := StripNonAlpha(s); got != s {
			t.Errorf("StripNonAlpha(%q) = %q, want unchanged", s, got)
		}
	}
	if got := StripNonAlpha("all-purpose"); got != "allpurpose" {
		t.Errorf("StripNonAlpha(all-purpose) = %q, want allpurpose", got)
	}
}

// TestInternerLookupBytes pins the byte-key probe to Lookup.
func TestInternerLookupBytes(t *testing.T) {
	in := NewInterner()
	a := in.Intern("flour")
	b := in.Intern("butter")
	if id, ok := in.LookupBytes([]byte("flour")); !ok || id != a {
		t.Errorf("LookupBytes(flour) = (%d, %v), want (%d, true)", id, ok, a)
	}
	if id, ok := in.LookupBytes([]byte("butter")); !ok || id != b {
		t.Errorf("LookupBytes(butter) = (%d, %v), want (%d, true)", id, ok, b)
	}
	if _, ok := in.LookupBytes([]byte("sugar")); ok {
		t.Error("LookupBytes(sugar) = hit, want miss")
	}
	if _, ok := in.LookupBytes(nil); ok {
		t.Error("LookupBytes(nil) = hit, want miss")
	}
}
