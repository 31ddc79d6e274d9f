package textutil

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestFolderLowerMatchesToLower pins Folder.Lower (nil and warm) to
// strings.ToLower on arbitrary input.
func TestFolderLowerMatchesToLower(t *testing.T) {
	var f Folder
	check := func(s string) bool {
		want := strings.ToLower(s)
		if (*Folder)(nil).Lower(s) != want {
			return false
		}
		// Twice through the same folder: miss then hit.
		return f.Lower(s) == want && f.Lower(s) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFolderLowerZeroCopy: already-lowercase input must come back as the
// identical string without touching the cache.
func TestFolderLowerZeroCopy(t *testing.T) {
	var f Folder
	for _, s := range []string{"", "flour", "1/2", "all-purpose"} {
		if got := f.Lower(s); got != s {
			t.Errorf("Lower(%q) = %q, want input unchanged", s, got)
		}
	}
	if f.m != nil {
		t.Errorf("lowercase inputs populated the cache: %v", f.m)
	}
}

// TestFolderBounded: overflowing the cache clears it but never changes
// results.
func TestFolderBounded(t *testing.T) {
	var f Folder
	for i := 0; i < maxFolderEntries+50; i++ {
		s := "Word" + strings.Repeat("X", i%7) + string(rune('A'+i%26))
		if got, want := f.Lower(s), strings.ToLower(s); got != want {
			t.Fatalf("Lower(%q) = %q, want %q", s, got, want)
		}
	}
	if len(f.m) > maxFolderEntries {
		t.Fatalf("folder grew past bound: %d entries", len(f.m))
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

// TestFolderMemoOwnsItsBytes: a token whose lowering changes nothing
// ("crème") is memoized by value as well as by key, and the value must
// not view the phrase. A phrase with fraction glyphs is expanded into
// the folder's own buffer, which the next such phrase overwrites; before
// the fix the memo kept a view of it, so a later "crème" tokenized as
// whatever bytes the next phrase left there.
func TestFolderMemoOwnsItsBytes(t *testing.T) {
	var f Folder
	AppendTokensFolded(nil, "2 medium sweet potatoes crème brûlée ½", &f)
	AppendTokensFolded(nil, "1 ½ teaspoon paprika, then some more", &f)
	for _, s := range []string{"crème brûlée", "1 ½ cup crème"} {
		if got, want := AppendTokensFolded(nil, s, &f), Tokenize(s); !reflect.DeepEqual(got, want) {
			t.Errorf("AppendTokensFolded(%q) = %q after other glyph phrases, want %q", s, got, want)
		}
	}
}
