// Package units implements the paper's unit-matching machinery (§II-C):
// cleaning noisy unit strings down to a canonical unit, resolving aliases
// ("tbsp" and "tablespoon" are the same unit; so are "pound" and "lb"),
// converting between units through Book-of-Yields-style measurement tables,
// and normalizing quantity expressions ("2-4" → 3, "2 1/2" → 2.5).
//
// String-matching heuristics like §II-B's are deliberately NOT used here —
// the paper observes that with a small closed unit inventory they produce
// "unwanted results due to incorrect matching of strings". Instead the
// pipeline is: lemmatize → take first word → strip non-alphabetic runes →
// alias lookup, which turns `pat (1" sq, 1/3" high)` into the canonical
// unit "pat".
package units

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"nutriprofile/internal/lemma"
	"nutriprofile/internal/textutil"
)

// Kind classifies a canonical unit by the dimension it measures.
type Kind uint8

const (
	// Volume units convert among themselves through the ml lattice.
	Volume Kind = iota
	// Mass units convert among themselves through the gram lattice.
	Mass
	// Size units are the small/medium/large family the paper treats as
	// equivalent "because of ambiguity between sizes".
	Size
	// Count units (clove, slice, can, …) are food-specific: their gram
	// weight comes only from the composition table, never from
	// conversion.
	Count
)

func (k Kind) String() string {
	switch k {
	case Volume:
		return "volume"
	case Mass:
		return "mass"
	case Size:
		return "size"
	case Count:
		return "count"
	}
	return "invalid"
}

// ErrUnknownUnit is returned when a raw string cannot be resolved to any
// canonical unit.
var ErrUnknownUnit = errors.New("units: unknown unit")

// ErrIncompatible is returned when a conversion crosses dimensions
// (volume↔mass) without a food-specific density.
var ErrIncompatible = errors.New("units: incompatible unit kinds")

// def describes one canonical unit.
type def struct {
	kind Kind
	// base is the measure in the kind's base quantity: millilitres for
	// Volume, grams for Mass; zero for Size and Count.
	base float64
}

// canonical maps canonical unit names to their definitions. Volume values
// are US customary measures in millilitres; mass values in grams — the
// constants behind the Book of Yields conversion tables ("1 cup is
// equivalent to 16 tbsp and 48 tsp and so on").
var canonical = map[string]def{
	// volume
	"drop":        {Volume, 0.0513},
	"pinch":       {Volume, 0.308},
	"dash":        {Volume, 0.616},
	"teaspoon":    {Volume, 4.92892},
	"tablespoon":  {Volume, 14.78676},
	"fluid ounce": {Volume, 29.57353},
	"jigger":      {Volume, 44.36029},
	"gill":        {Volume, 118.29412},
	"cup":         {Volume, 236.58824},
	"pint":        {Volume, 473.17647},
	"quart":       {Volume, 946.35295},
	"gallon":      {Volume, 3785.41178},
	"milliliter":  {Volume, 1},
	"centiliter":  {Volume, 10},
	"deciliter":   {Volume, 100},
	"liter":       {Volume, 1000},

	// mass
	"milligram": {Mass, 0.001},
	"gram":      {Mass, 1},
	"kilogram":  {Mass, 1000},
	"ounce":     {Mass, 28.34952},
	"pound":     {Mass, 453.59237},

	// sizes (equivalent per §II-C)
	"small":  {Size, 0},
	"medium": {Size, 0},
	"large":  {Size, 0},

	// counts — weight is food-specific, supplied by the composition table
	"unit":      {Count, 0},
	"clove":     {Count, 0},
	"slice":     {Count, 0},
	"piece":     {Count, 0},
	"can":       {Count, 0},
	"package":   {Count, 0},
	"stick":     {Count, 0},
	"pat":       {Count, 0},
	"head":      {Count, 0},
	"bunch":     {Count, 0},
	"sprig":     {Count, 0},
	"stalk":     {Count, 0},
	"rib":       {Count, 0},
	"leaf":      {Count, 0},
	"ear":       {Count, 0},
	"fillet":    {Count, 0},
	"jar":       {Count, 0},
	"bottle":    {Count, 0},
	"box":       {Count, 0},
	"bag":       {Count, 0},
	"envelope":  {Count, 0},
	"packet":    {Count, 0},
	"scoop":     {Count, 0},
	"loaf":      {Count, 0},
	"sheet":     {Count, 0},
	"cube":      {Count, 0},
	"wedge":     {Count, 0},
	"strip":     {Count, 0},
	"link":      {Count, 0},
	"breast":    {Count, 0},
	"thigh":     {Count, 0},
	"drumstick": {Count, 0},
	"carton":    {Count, 0},
	"container": {Count, 0},
	"square":    {Count, 0},
	"round":     {Count, 0},
	"serving":   {Count, 0},
	"handful":   {Count, 0},
	"knob":      {Count, 0},
	"bulb":      {Count, 0},
	"pod":       {Count, 0},
	"kernel":    {Count, 0},
	"floret":    {Count, 0},
	"spear":     {Count, 0},
	"crown":     {Count, 0},
}

// aliases maps cleaned (lemmatized, alpha-only) spellings to canonical
// unit names. Lookup happens after cleaning, so plural and punctuated
// variants do not need their own rows.
var aliases = map[string]string{
	"tsp":           "teaspoon",
	"teaspoonful":   "teaspoon",
	"tbsp":          "tablespoon",
	"tbs":           "tablespoon",
	"tbl":           "tablespoon",
	"tablespoonful": "tablespoon",
	"c":             "cup",
	"floz":          "fluid ounce",
	"fluidounce":    "fluid ounce",
	"fl":            "fluid ounce",
	"pt":            "pint",
	"qt":            "quart",
	"gal":           "gallon",
	"ml":            "milliliter",
	"millilitre":    "milliliter",
	"cl":            "centiliter",
	"dl":            "deciliter",
	"l":             "liter",
	"litre":         "liter",
	"mg":            "milligram",
	"g":             "gram",
	"gm":            "gram",
	"gr":            "gram",
	"kg":            "kilogram",
	"kilo":          "kilogram",
	"oz":            "ounce",
	"lb":            "pound",
	"pd":            "pound",
	"pkg":           "package",
	"pack":          "package",
	"env":           "envelope",
	"md":            "medium",
	"med":           "medium",
	"sm":            "small",
	"lg":            "large",
	"ctn":           "carton",
	"cn":            "can",
	"tin":           "can",
	"stalks":        "stalk",
	"filet":         "fillet",
	"whole":         "unit",
	"item":          "unit",
	"each":          "unit",
	"count":         "unit",
	"fruit":         "unit",
	"chunk":         "piece",
	"segment":       "piece",
	"section":       "piece",
	"splash":        "dash",
	"smidgen":       "pinch",
	// Count nouns that SR weight tables use as their own units
	// ("1 bagel", "1 fig"). Mapping them to the generic count unit makes
	// those rows resolvable.
	"bagel":     "unit",
	"muffin":    "unit",
	"croissant": "unit",
	"doughnut":  "unit",
	"pita":      "unit",
	"cookie":    "unit",
	"cracker":   "unit",
	"biscuit":   "unit",
	"pancake":   "unit",
	"waffle":    "unit",
	"roll":      "unit",
	"fig":       "unit",
	"date":      "unit",
	"mushroom":  "unit",
	"cap":       "unit",
	"leek":      "unit",
	"pickle":    "unit",
	"olive":     "unit",
	"pepper":    "unit",
	"tortilla":  "piece",
	"sandwich":  "unit",
	"taco":      "unit",
	"burrito":   "unit",
	"bar":       "unit",
}

// Clean reduces a raw unit string to its cleaned token: lemmatize the
// first word, then strip everything non-alphabetic. This is the exact
// §II-C pipeline (`pat (1" sq, 1/3" high)` → "pat", "cups" → "cup").
func Clean(raw string) string {
	first := textutil.FirstWord(raw)
	if first == "" {
		return ""
	}
	return textutil.StripNonAlpha(lemma.Word(first))
}

// Normalize resolves a raw unit string to its canonical unit name.
// The second return reports whether the unit is known.
func Normalize(raw string) (string, bool) {
	return lookupUnit(Clean(raw))
}

// lookupUnit resolves a cleaned spelling through the canonical and alias
// tables. Unknown non-empty spellings are returned as-is with ok=false,
// mirroring Normalize's historical contract.
func lookupUnit(c string) (string, bool) {
	if c == "" {
		return "", false
	}
	if _, ok := canonical[c]; ok {
		return c, true
	}
	if target, ok := aliases[c]; ok {
		return target, true
	}
	return c, false
}

// CleanToken is Clean for a single token as Tokenize emits them. Tokens
// re-tokenize to themselves, so FirstWord(tok) is tok itself when it is a
// word token and "" otherwise — this skips the re-tokenization Clean pays
// on arbitrary strings.
func CleanToken(tok string) string {
	if !textutil.IsWordToken(tok) {
		return ""
	}
	return textutil.StripNonAlpha(lemma.Word(tok))
}

// NormalizeToken is Normalize for a single Tokenize-emitted token.
func NormalizeToken(tok string) (string, bool) {
	return lookupUnit(CleanToken(tok))
}

// MustKind returns the Kind of a canonical unit name; it panics on unknown
// names and is intended for static tables in this module.
func MustKind(name string) Kind {
	d, ok := canonical[name]
	if !ok {
		panic(fmt.Sprintf("units: %q is not canonical", name))
	}
	return d.kind
}

// KindOf returns the Kind of a canonical unit name.
func KindOf(name string) (Kind, error) {
	d, ok := canonical[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownUnit, name)
	}
	return d.kind, nil
}

// IsKnown reports whether name is a canonical unit name.
func IsKnown(name string) bool {
	_, ok := canonical[name]
	return ok
}

// Equivalent reports whether two canonical units should be treated as the
// same for table joining. Identical names are equivalent, and so are any
// two Size units (§II-C: small, medium and large "were considered
// equivalent because of ambiguity between sizes").
func Equivalent(a, b string) bool {
	if a == b {
		return true
	}
	da, ok1 := canonical[a]
	db, ok2 := canonical[b]
	return ok1 && ok2 && da.kind == Size && db.kind == Size
}

// Convert converts amount from one canonical unit to another within the
// same dimension: Convert(1, "cup", "tablespoon") = 16. Size and Count
// units have no intrinsic measure and cannot be converted.
func Convert(amount float64, from, to string) (float64, error) {
	df, ok := canonical[from]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownUnit, from)
	}
	dt, ok := canonical[to]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownUnit, to)
	}
	if df.kind != dt.kind || df.base == 0 || dt.base == 0 {
		return 0, fmt.Errorf("%w: %s (%s) → %s (%s)", ErrIncompatible, from, df.kind, to, dt.kind)
	}
	return amount * df.base / dt.base, nil
}

// Ratio returns how many `to` units make one `from` unit.
func Ratio(from, to string) (float64, error) { return Convert(1, from, to) }

// Grams converts an amount of a Mass unit directly to grams.
func Grams(amount float64, unit string) (float64, error) {
	return Convert(amount, unit, "gram")
}

// Milliliters converts an amount of a Volume unit directly to millilitres.
func Milliliters(amount float64, unit string) (float64, error) {
	return Convert(amount, unit, "milliliter")
}

// Canonical returns the sorted list of canonical unit names of a given
// kind (for table generation and tests).
func Canonical(kind Kind) []string {
	var out []string
	for name, d := range canonical {
		if d.kind == kind {
			out = append(out, name)
		}
	}
	sortStrings(out)
	return out
}

// AllCanonical returns every canonical unit name, sorted.
func AllCanonical() []string {
	out := make([]string, 0, len(canonical))
	for name := range canonical {
		out = append(out, name)
	}
	sortStrings(out)
	return out
}

func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// FindInPhrase scans a tokenized ingredient phrase for the first token
// that resolves to a known unit. The paper uses this as the recovery path
// when NER fails to detect a unit ("we searched the ingredient phrase for
// known units and if found they were updated").
func FindInPhrase(tokens []string) (canonicalName string, index int, ok bool) {
	for i, t := range tokens {
		if name, known := Normalize(t); known {
			return name, i, true
		}
	}
	return "", -1, false
}

// wordNumbers spells out the small cardinals that recipes write as words.
var wordNumbers = map[string]float64{
	"a": 1, "an": 1, "one": 1, "two": 2, "three": 3, "four": 4,
	"five": 5, "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
	"eleven": 11, "twelve": 12, "dozen": 12, "half": 0.5, "quarter": 0.25,
	"couple": 2, "few": 3, "several": 3,
}

// ParseQuantity normalizes a quantity expression to a single number,
// reproducing §II-C: "'2-4' was averaged to 3, '2 1/2' was converted to
// 2.5 and so on". Accepted forms: integers, decimals, fractions "1/2",
// mixed numbers "2 1/2", ranges "2-4" (averaged, also with fraction
// endpoints), unicode fractions, and small word numbers ("a", "one",
// "half", "dozen").
func ParseQuantity(raw string) (float64, error) {
	raw = strings.TrimSpace(textutil.ExpandFractions(raw))
	if raw == "" {
		return 0, errors.New("units: empty quantity")
	}
	// Split into lower-cased fields without the strings.Fields +
	// strings.ToLower allocations: quantities are short, so the fields
	// live in a stack array (append spills transparently past 8). Folding
	// per field is identical to folding the whole string because case
	// mapping never creates or destroys whitespace.
	var arr [8]string
	fields := appendFieldsLower(arr[:0], raw)

	// Word numbers: "a", "one", "half", "one dozen".
	if v, ok := wordNumbers[fields[0]]; ok {
		if len(fields) == 2 {
			if w, ok2 := wordNumbers[fields[1]]; ok2 {
				return v * w, nil // "one dozen" = 12
			}
		}
		if len(fields) == 1 {
			return v, nil
		}
	}

	// "N to M" spelled ranges become "N-M".
	if len(fields) == 3 && (fields[1] == "to" || fields[1] == "-" || fields[1] == "or") {
		fields[0] = fields[0] + "-" + fields[2]
		fields = fields[:1]
	}

	// Mixed number: "2 1/2".
	if len(fields) == 2 && strings.Contains(fields[1], "/") {
		whole, err1 := parseSimple(fields[0])
		frac, err2 := parseSimple(fields[1])
		if err1 == nil && err2 == nil {
			return whole + frac, nil
		}
	}

	if len(fields) != 1 {
		// Take the first parseable field ("3 heaping" → 3).
		for _, f := range fields {
			if v, err := parseSimple(f); err == nil {
				return v, nil
			}
		}
		return 0, fmt.Errorf("units: unparseable quantity %q", raw)
	}
	return parseSimple(fields[0])
}

// ParseServings extracts the serving count from a recipe's servings text
// ("6", "Serves 4", "4 servings", "makes 12", "4-6 servings"). clean
// reports whether the count is well-defined — a single unambiguous
// integer — the selection criterion of the paper's calorie evaluation
// ("clean, well-defined servings"). Ranges parse to their rounded average
// with clean=false; text without any number returns ok=false.
func ParseServings(s string) (n int, clean, ok bool) {
	fields := strings.Fields(strings.ToLower(textutil.ExpandFractions(s)))
	var values []float64
	ranged := false
	for _, f := range fields {
		f = strings.Trim(f, ".,;:!()")
		if f == "" {
			continue
		}
		if v, err := parseSimple(f); err == nil {
			values = append(values, v)
			if strings.ContainsAny(f, "-/.") {
				ranged = true
			}
		}
	}
	if len(values) == 0 {
		return 0, false, false
	}
	v := values[0]
	n = int(math.Round(v))
	if n < 1 {
		n = 1
	}
	clean = len(values) == 1 && !ranged && v == math.Trunc(v)
	return n, clean, true
}

// appendFieldsLower appends the whitespace-separated fields of s to dst,
// each lower-cased. Equivalent to strings.Fields(strings.ToLower(s)) but
// allocation-free when every field is already lower-case and dst has
// capacity.
func appendFieldsLower(dst []string, s string) []string {
	i := 0
	for i < len(s) {
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			i += size
			continue
		}
		j := i + size
		for j < len(s) {
			r2, sz := utf8.DecodeRuneInString(s[j:])
			if unicode.IsSpace(r2) {
				break
			}
			j += sz
		}
		dst = append(dst, lowerField(s[i:j]))
		i = j
	}
	return dst
}

// lowerField lower-cases one field, returning it unchanged (no alloc)
// when it contains no ASCII upper-case byte and no multi-byte rune.
func lowerField(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf || ('A' <= s[i] && s[i] <= 'Z') {
			return strings.ToLower(s)
		}
	}
	return s
}

// parseSimple handles one token: number, decimal, fraction or range.
func parseSimple(tok string) (float64, error) {
	// Range "2-4" (but not a leading negative sign).
	if i := strings.IndexByte(tok, '-'); i > 0 {
		lo, err1 := parseSimple(tok[:i])
		hi, err2 := parseSimple(tok[i+1:])
		if err1 == nil && err2 == nil {
			return (lo + hi) / 2, nil
		}
	}
	// Fraction "1/2".
	if i := strings.IndexByte(tok, '/'); i > 0 {
		num, err1 := strconv.ParseFloat(tok[:i], 64)
		den, err2 := strconv.ParseFloat(tok[i+1:], 64)
		if err1 == nil && err2 == nil && den != 0 {
			return num / den, nil
		}
		return 0, fmt.Errorf("units: bad fraction %q", tok)
	}
	v, err := strconv.ParseFloat(tok, 64)
	// ParseFloat accepts "nan" and "inf" spellings; quantities must be
	// finite and non-negative.
	if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("units: bad number %q", tok)
	}
	return v, nil
}
