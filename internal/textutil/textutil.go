// Package textutil provides the low-level text primitives the pipeline is
// built on: tokenization of noisy ingredient phrases, case folding, unicode
// fraction expansion, comma-term splitting for USDA-SR style food
// descriptions, and set operations over word bags.
//
// Every stage of the paper's pipeline (NER §II-A, description matching
// §II-B, unit matching §II-C) starts from these primitives, so they are
// deliberately small, allocation-conscious and deterministic.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// fractionGlyphs maps unicode vulgar-fraction code points to their ASCII
// "n/d" spelling. Recipe sites frequently emit ½ and ¼ glyphs; USDA-SR and
// the quantity grammar both work on ASCII fractions.
var fractionGlyphs = map[rune]string{
	'½': "1/2", '⅓': "1/3", '⅔': "2/3", '¼': "1/4", '¾': "3/4",
	'⅕': "1/5", '⅖': "2/5", '⅗': "3/5", '⅘': "4/5", '⅙': "1/6",
	'⅚': "5/6", '⅐': "1/7", '⅛': "1/8", '⅜': "3/8", '⅝': "5/8",
	'⅞': "7/8", '⅑': "1/9", '⅒': "1/10",
}

// ExpandFractions rewrites unicode vulgar-fraction glyphs as ASCII
// fractions, inserting a space before the glyph when it directly follows a
// digit so that "1½" becomes the mixed number "1 1/2". Strings without a
// glyph (the overwhelmingly common case) are returned unchanged without
// allocating.
func ExpandFractions(s string) string {
	if !containsFractionGlyph(s) {
		return s
	}
	b := appendExpanded(make([]byte, 0, len(s)+8), s)
	return unsafe.String(unsafe.SliceData(b), len(b)) // b is never reused
}

// appendExpanded appends s with every glyph expanded.
func appendExpanded(b []byte, s string) []byte {
	prevDigit := false
	for _, r := range s {
		if frac, ok := fractionGlyphs[r]; ok {
			if prevDigit {
				b = append(b, ' ')
			}
			b = append(b, frac...)
			prevDigit = false
			continue
		}
		b = utf8.AppendRune(b, r)
		prevDigit = unicode.IsDigit(r)
	}
	return b
}

// containsFractionGlyph reports whether s contains any vulgar-fraction
// rune. Every glyph is multi-byte, so the pure-ASCII prefix is skipped
// bytewise before any rune decoding happens.
func containsFractionGlyph(s string) bool {
	i := 0
	for i < len(s) && s[i] < utf8.RuneSelf {
		i++
	}
	for _, r := range s[i:] {
		if _, ok := fractionGlyphs[r]; ok {
			return true
		}
	}
	return false
}

// Tokenize splits a phrase into lower-cased tokens. Alphabetic runs,
// numeric runs (including fractions "1/2", decimals "2.5" and ranges
// "2-4"), and single punctuation marks each form one token. Hyphenated
// words such as "hard-cooked" and "all-purpose" are kept together, matching
// how the paper's Table I treats them as single STATE/NAME words.
func Tokenize(s string) []string {
	return appendTokens(nil, s, false, nil)
}

// AppendTokensFolded is Tokenize appending into dst, so callers on hot
// paths can reuse one scratch slice across phrases. A cased token is
// lowered into f's buffer, and fraction glyphs expand into another of
// its buffers, rather than into new strings, so a warm Folder tokenizes
// without allocating. Token values are identical to Tokenize's, but the
// tokens of a phrase with a cased token ("2 Cups") or a glyph ("1½
// cups") may view those buffers and are valid only until the next call
// with the same Folder: callers copy out whatever outlives it.
func AppendTokensFolded(dst []string, s string, f *Folder) []string {
	if f != nil {
		f.lowered = f.lowered[:0]
	}
	return appendTokens(dst, s, false, f)
}

// Folder is a tokenizer's reusable state: the buffer the current
// phrase's cased tokens are lowered into and the buffer phrases with
// fraction glyphs are expanded into. Tokens that are already lower-case
// never touch it (they are returned as zero-copy substrings). A nil
// *Folder is valid and simply falls back to strings.ToLower and
// ExpandFractions. Not safe for concurrent use — a Folder belongs to one
// goroutine's scratch state.
type Folder struct {
	lowered []byte // the current phrase's cased tokens, lowered
	frac    []byte // the last phrase with fraction glyphs, expanded
}

// expandFractions is ExpandFractions rendering into f.frac, so a warm
// Folder expands without allocating. The result views f.frac until the
// next expansion.
func (f *Folder) expandFractions(s string) string {
	if f == nil {
		return ExpandFractions(s)
	}
	if !containsFractionGlyph(s) {
		return s
	}
	f.frac = appendExpanded(f.frac[:0], s)
	return unsafe.String(unsafe.SliceData(f.frac), len(f.frac))
}

// lower returns strings.ToLower(s). A token with nothing to fold comes
// back as s itself; a cased one is lowered into f.lowered, behind the
// phrase's earlier lowered tokens, and views it. Each rune is written
// as unicode.ToLower maps it, an invalid byte as U+FFFD: the bytes
// strings.ToLower builds.
func (f *Folder) lower(s string) string {
	// Fast path: nothing to fold in an ASCII prefix without capitals.
	i := 0
	for i < len(s) && s[i] < utf8.RuneSelf && (s[i] < 'A' || s[i] > 'Z') {
		i++
	}
	if i == len(s) {
		return s
	}
	if f == nil {
		return strings.ToLower(s)
	}
	for j, r := range s[i:] {
		if unicode.ToLower(r) == r && r != utf8.RuneError {
			continue
		}
		start := len(f.lowered)
		f.lowered = append(f.lowered, s[:i+j]...)
		for _, r := range s[i+j:] {
			f.lowered = utf8.AppendRune(f.lowered, unicode.ToLower(r))
		}
		b := f.lowered[start:]
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	return s // non-ASCII runes without a lower-case form ("crème")
}

// appendTokens walks the string directly with utf8.DecodeRuneInString and
// slices the original string for each token — no []rune conversion, no
// rune re-encoding. Already-lowercase tokens (the typical case for both
// recipe phrases and normalized queries) are emitted as zero-copy
// substrings because case folding returns its input unchanged when there
// is nothing to fold; cased tokens fold through f (nil: plain ToLower).
func appendTokens(dst []string, s string, wordsOnly bool, f *Folder) []string {
	s = f.expandFractions(s)
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case unicode.IsDigit(r):
			j := i + size
			for j < len(s) {
				r2, sz2 := utf8.DecodeRuneInString(s[j:])
				if unicode.IsDigit(r2) || r2 == '.' || r2 == '/' {
					j += sz2
					continue
				}
				if r2 == '-' {
					if r3, _ := utf8.DecodeRuneInString(s[j+sz2:]); unicode.IsDigit(r3) {
						j += sz2
						continue
					}
				}
				break
			}
			if !wordsOnly {
				dst = append(dst, f.lower(s[i:j]))
			}
			i = j
		case unicode.IsLetter(r):
			j := i + size
			for j < len(s) {
				r2, sz2 := utf8.DecodeRuneInString(s[j:])
				if unicode.IsLetter(r2) || r2 == '\'' {
					j += sz2
					continue
				}
				if r2 == '-' {
					if r3, _ := utf8.DecodeRuneInString(s[j+sz2:]); unicode.IsLetter(r3) {
						j += sz2
						continue
					}
				}
				break
			}
			dst = append(dst, f.lower(s[i:j]))
			i = j
		case r == '%':
			if !wordsOnly {
				dst = append(dst, "%")
			}
			i += size
		default:
			// Punctuation: emit commas (description-term separators) and
			// drop everything else as noise, e.g. the quote marks in the
			// USDA unit `pat (1" sq, 1/3" high)`.
			if !wordsOnly && (r == ',' || r == '(' || r == ')') {
				dst = append(dst, s[i:i+size])
			}
			i += size
		}
	}
	return dst
}

// Words returns only the alphabetic tokens of a phrase (lower-cased),
// dropping numbers and punctuation. This is the preprocessing base for
// Jaccard word sets (§II-B(e)).
func Words(s string) []string {
	return appendTokens(nil, s, true, nil)
}

// AppendWords is Words appending into dst, so callers can reuse one
// scratch slice across phrases.
func AppendWords(dst []string, s string) []string {
	return appendTokens(dst, s, true, nil)
}

// IsWordToken reports whether t is an alphabetic token as Tokenize emits
// them: letters plus interior hyphens/apostrophes. Numeric and
// punctuation tokens are not word tokens.
func IsWordToken(t string) bool {
	if t == "" {
		return false
	}
	for _, r := range t {
		if !unicode.IsLetter(r) && r != '-' && r != '\'' {
			return false
		}
	}
	return true
}

// SplitCommaTerms splits a USDA-SR food description into its
// comma-separated terms, trimming whitespace and dropping empties:
// "Butter, whipped, with salt" → ["Butter", "whipped", "with salt"].
// The paper (§II-B(a)) assigns decreasing importance to later terms.
func SplitCommaTerms(desc string) []string {
	parts := strings.Split(desc, ",")
	out := parts[:0:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Set is a bag-of-words set used by the Jaccard metrics.
type Set map[string]struct{}

// NewSet builds a Set from tokens.
func NewSet(tokens []string) Set {
	s := make(Set, len(tokens))
	for _, t := range tokens {
		s[t] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s Set) Has(w string) bool { _, ok := s[w]; return ok }

// Add inserts a word.
func (s Set) Add(w string) { s[w] = struct{}{} }

// Len returns |S|.
func (s Set) Len() int { return len(s) }

// IntersectLen returns |s ∩ t| without materializing the intersection.
func (s Set) IntersectLen(t Set) int {
	small, large := s, t
	if len(t) < len(s) {
		small, large = t, s
	}
	n := 0
	for w := range small {
		if _, ok := large[w]; ok {
			n++
		}
	}
	return n
}

// UnionLen returns |s ∪ t|.
func (s Set) UnionLen(t Set) int {
	return len(s) + len(t) - s.IntersectLen(t)
}

// Sorted returns the members in lexical order (for deterministic output).
func (s Set) Sorted() []string {
	out := make([]string, 0, len(s))
	for w := range s {
		out = append(out, w)
	}
	sortStrings(out)
	return out
}

// sortStrings is an insertion sort: sets here are tiny (phrase-sized) and
// this keeps the package dependency-free of sort for the hot path.
func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Singularize-adjacent helpers used across packages.

// EqualFold reports case-insensitive equality without allocating.
func EqualFold(a, b string) bool { return strings.EqualFold(a, b) }

// FirstWord returns the first alphabetic token of s, lower-cased, or "".
// Used by unit cleaning (§II-C): `pat (1" sq, 1/3" high)` → "pat".
func FirstWord(s string) string {
	for _, t := range Tokenize(s) {
		if IsWordToken(t) {
			return t
		}
	}
	return ""
}

// StripNonAlpha removes every non-letter rune and lower-cases the result,
// the "regex to obtain a cleaner version containing only alphabets" step of
// §II-C. Strings that are already clean (lower-case ASCII letters only,
// the common case for tokenized unit words) are returned unchanged
// without allocating.
func StripNonAlpha(s string) string {
	i := 0
	for i < len(s) && 'a' <= s[i] && s[i] <= 'z' {
		i++
	}
	if i == len(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if unicode.IsLetter(r) {
			b.WriteRune(unicode.ToLower(r))
		}
	}
	return b.String()
}
