package pipeline

import (
	"testing"
	"unsafe"

	"nutriprofile/internal/ner"
)

// TestScratchMemosOwnTheirBytes is the regression test for the
// serving-layer aliasing bug: the scratch's unit memo must deep-copy
// both keys and values, because the serving hot path feeds phrases that
// are unsafe views into a pooled request buffer — after the request,
// those bytes are overwritten by unrelated data. Before the fix,
// lemma.Word's suffix detachment returned substrings of the token
// ("slices" → "slices"[:5]) that were cached verbatim, so a later
// request mutated memoized unit names in place.
func TestScratchMemosOwnTheirBytes(t *testing.T) {
	// The phrase lives in a buffer we control and will clobber.
	buf := []byte("2 slices bread and 3 tablespoons sugar")
	phrase := unsafe.String(unsafe.SliceData(buf), len(buf))

	var sc Scratch
	sc.Tokenize(phrase)

	// Record the memoized outcomes while the buffer is intact.
	type unitOutcome struct {
		name  string
		known bool
	}
	units := make([]unitOutcome, 0, 8)
	for i := range sc.Tokens() {
		name, known := sc.UnitFor(i)
		units = append(units, unitOutcome{name, known})
	}
	ex := sc.Extract(ner.RuleTagger{})

	// Simulate the next request reusing the buffer.
	for i := range buf {
		buf[i] = 'X'
	}

	// Everything recorded must still read back intact: stale bytes in
	// any memo value would show up here as mutated strings.
	if units[1].name != "slice" || !units[1].known {
		t.Errorf(`unit for "slices" = (%q, %v) after buffer reuse, want ("slice", true)`, units[1].name, units[1].known)
	}
	if units[5].name != "tablespoon" || !units[5].known {
		t.Errorf(`unit for "tablespoons" = (%q, %v) after buffer reuse, want ("tablespoon", true)`, units[5].name, units[5].known)
	}
	if ex.Unit == "" || ex.Name == "" {
		t.Fatalf("extraction missing fields: %+v", ex)
	}
	for _, f := range []string{ex.Name, ex.Unit, ex.Quantity} {
		for i := 0; i < len(f); i++ {
			if f[i] == 'X' {
				t.Fatalf("extraction field %q contains clobbered bytes", f)
			}
		}
	}

	// A second phrase re-hitting the memos must see the original
	// outcomes, not the clobbered bytes.
	sc.Tokenize("4 slices ham")
	if name, known := sc.UnitFor(1); name != "slice" || !known {
		t.Errorf(`memoized unit for "slices" = (%q, %v), want ("slice", true)`, name, known)
	}
}

// TestFractionExpansionOwnsNoMemo: a phrase with a fraction glyph is
// expanded into the scratch's own buffer, so its tokens view bytes the
// next glyph phrase overwrites. Everything the scratch memoizes from
// them — and every Extraction field — must survive that overwrite.
func TestFractionExpansionOwnsNoMemo(t *testing.T) {
	var sc Scratch
	sc.Tokenize("1½ slices bread")
	unit, known := sc.UnitFor(2)
	ex := sc.Extract(ner.RuleTagger{})
	if ex.Quantity != "1 1/2" || ex.Name != "bread" {
		t.Fatalf("extraction of the expanded phrase: %+v", ex)
	}

	// Same length, different bytes: rewrites the expansion buffer in place.
	sc.Tokenize("9¾ xxxxxx yyyyy")
	sc.Extract(ner.RuleTagger{})

	if unit != "slice" || !known {
		t.Errorf(`unit of "slices" = (%q, %v) after the buffer was reused, want ("slice", true)`, unit, known)
	}
	if ex.Name != "bread" || ex.Quantity != "1 1/2" {
		t.Errorf("extraction changed after the buffer was reused: %+v", ex)
	}
	sc.Tokenize("2 slices ham")
	if name, known := sc.UnitFor(1); name != "slice" || !known {
		t.Errorf(`memoized unit for "slices" = (%q, %v), want ("slice", true)`, name, known)
	}
}

// TestCaseFoldingOwnsNoMemo: a cased token is lowered into the
// scratch's own buffer, so a cased phrase's tokens view bytes the next
// cased phrase overwrites. Everything the scratch memoizes from them —
// and every Extraction field — must survive that overwrite.
func TestCaseFoldingOwnsNoMemo(t *testing.T) {
	var sc Scratch
	sc.Tokenize("2 Slices Bread")
	unit, known := sc.UnitFor(1)
	ex := sc.Extract(ner.RuleTagger{})
	if ex.Quantity != "2" || ex.Name != "bread" {
		t.Fatalf("extraction of the cased phrase: %+v", ex)
	}

	// Same length, different bytes: rewrites the lowering buffer in place.
	sc.Tokenize("9 XXXXXX YYYYY")
	sc.Extract(ner.RuleTagger{})

	if unit != "slice" || !known {
		t.Errorf(`unit of "Slices" = (%q, %v) after the buffer was reused, want ("slice", true)`, unit, known)
	}
	if ex.Name != "bread" || ex.Quantity != "2" || ex.Unit != "slices" {
		t.Errorf("extraction changed after the buffer was reused: %+v", ex)
	}
	sc.Tokenize("4 Slices ham")
	if name, known := sc.UnitFor(1); name != "slice" || !known {
		t.Errorf(`memoized unit for "slices" = (%q, %v), want ("slice", true)`, name, known)
	}
}
