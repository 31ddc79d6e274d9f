package textutil

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"1/2 lb lean ground beef",
		"½ cup sugar , sifted",
		`pat (1" sq, 1/3" high)`,
		"500 g or 1 cup flour",
		"Milk, reduced fat, fluid, 2% milkfat",
		"", "   ", "🍎 2 apples", "a\x00b", strings.Repeat("x", 300),
	} {
		f.Add(seed)
	}
	var warm Folder // reused across inputs, as a pipeline scratch's is
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatalf("empty token from %q", s)
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("non-lowered token %q from %q", tok, s)
			}
			if !utf8.ValidString(tok) {
				t.Fatalf("invalid UTF-8 token %q from %q", tok, s)
			}
		}
		// The folded tokenizer lowers into the Folder's buffers: byte-equal
		// to Tokenize's strings.ToLower on a warm Folder and a fresh one.
		for _, fo := range []*Folder{&warm, new(Folder)} {
			folded := AppendTokensFolded(nil, s, fo)
			if len(folded) != len(toks) {
				t.Fatalf("AppendTokensFolded(%q) = %q, Tokenize = %q", s, folded, toks)
			}
			for i := range toks {
				if folded[i] != toks[i] {
					t.Fatalf("AppendTokensFolded(%q) = %q, Tokenize = %q", s, folded, toks)
				}
			}
		}
		// Words ⊆ Tokenize.
		words := Words(s)
		if len(words) > len(toks) {
			t.Fatalf("Words longer than Tokenize for %q", s)
		}
	})
}

func FuzzExpandFractions(f *testing.F) {
	for _, seed := range []string{"1½", "⅛ tsp", "no fractions", "½½½", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out := ExpandFractions(s)
		if strings.ContainsAny(out, "½⅓⅔¼¾⅕⅖⅗⅘⅙⅚⅐⅛⅜⅝⅞⅑⅒") {
			t.Fatalf("glyph survived: %q → %q", s, out)
		}
		// Idempotent.
		if again := ExpandFractions(out); again != out {
			t.Fatalf("not idempotent: %q → %q → %q", s, out, again)
		}
		// A Folder's buffer-backed expansion renders the same bytes,
		// also over a buffer still holding an earlier expansion.
		f := Folder{frac: []byte("⅛⅛⅛ stale bytes")}
		if into := f.expandFractions(s); into != out {
			t.Fatalf("Folder.expandFractions(%q) = %q, ExpandFractions = %q", s, into, out)
		}
	})
}
