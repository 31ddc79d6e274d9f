package ner

import (
	"unicode"
	"unicode/utf8"

	"nutriprofile/internal/units"
)

// Closed-class lexicons backing both the rule-based tagger and the
// feature templates. These mirror the gazetteer features Stanford NER is
// typically run with.

// sizeWords are the SIZE entity inventory (§II-C treats the three sizes
// as equivalent units, but at the NER level they are SIZE tags).
var sizeWords = map[string]bool{
	"small": true, "medium": true, "large": true, "extra-large": true,
	"jumbo": true, "big": true, "little": true, "bite-size": true,
	"bite-sized": true, "medium-size": true, "medium-sized": true,
}

// tempWords carry the TEMP entity: serving/working temperature of an
// ingredient ("1 tablespoon cold water").
var tempWords = map[string]bool{
	"cold": true, "hot": true, "warm": true, "lukewarm": true,
	"chilled": true, "iced": true, "frozen": true, "room-temperature": true,
	"boiling": true, "cool": true, "tepid": true,
}

// dfWords carry the DF (dry/fresh) entity of Table I.
var dfWords = map[string]bool{
	"fresh": true, "dried": true, "dry": true,
	"dehydrated": true, "freeze-dried": true,
}

// stateWords are processing states: the participles and adjectives that
// fill the STATE column of Table I ("ground", "chopped", "softened",
// "hard-cooked", "lean", "low fat"…).
var stateWords = map[string]bool{
	"beaten": true, "blanched": true, "boiled": true, "boneless": true,
	"broken": true, "browned": true, "chopped": true, "cooked": true,
	"creamed": true, "crumbled": true, "crushed": true, "cubed": true,
	"cut": true, "diced": true, "drained": true, "grated": true,
	"ground": true, "halved": true, "hard-boiled": true,
	"hard-cooked": true, "hulled": true, "juiced": true, "julienned": true,
	"lean": true, "mashed": true, "melted": true, "minced": true,
	"packed": true, "pared": true, "peeled": true, "pitted": true,
	"pureed": true, "quartered": true, "rinsed": true, "roasted": true,
	"rolled": true, "scalded": true, "seeded": true, "shaved": true,
	"shelled": true, "shredded": true, "shucked": true, "sifted": true,
	"skinless": true, "sliced": true, "slivered": true, "smoked": true,
	"soaked": true, "soft-boiled": true, "softened": true, "split": true,
	"steamed": true, "stemmed": true, "stewed": true, "strained": true,
	"thawed": true, "toasted": true, "torn": true, "trimmed": true,
	"uncooked": true, "unsalted": true, "unsweetened": true, "washed": true,
	"whipped": true, "zested": true, "sour": true, "low-fat": true,
	"nonfat": true, "fat-free": true, "skim": true, "skimmed": true,
	"condensed": true, "evaporated": true, "sweetened": true,
	"marinated": true, "pickled": true, "cured": true, "salted": true,
	"squeezed": true, "sectioned": true, "flaked": true, "refrigerated": true,
	"divided": true, "separated": true, "crosswise": true, "lengthwise": true,
}

// fillerWords never carry an entity: adverbs and glue the NER maps to O.
var fillerWords = map[string]bool{
	"finely": true, "coarsely": true, "thinly": true, "thickly": true,
	"roughly": true, "lightly": true, "well": true, "very": true,
	"freshly": true,
	"about":   true, "approximately": true, "plus": true, "more": true,
	"taste": true, "to": true, "for": true, "garnish": true, "into": true,
	"or": true, "and": true, "of": true, "with": true, "without": true,
	"optional": true, "needed": true, "if": true, "desired": true,
	"such": true, "as": true, "a": true, "an": true, "the": true,
	"each": true, "in": true, "at": true, "on": true, "pieces": true,
	"piece": true, "serving": true, "additional": true, "extra": true,
	"preferably": true, "pats": true,
}

// isQuantityToken reports whether a token is numeric in any of the
// quantity spellings the corpus uses (integers, decimals, fractions,
// ranges).
func isQuantityToken(tok string) bool {
	if tok == "" {
		return false
	}
	hasDigit := false
	for _, r := range tok {
		switch {
		case unicode.IsDigit(r):
			hasDigit = true
		case r == '.' || r == '/' || r == '-':
		default:
			return false
		}
	}
	return hasDigit
}

// tagsAsUnit reports whether the tagger reads tok as a unit, given tok's
// units.NormalizeToken result: a known measurement unit that is NOT a
// size word (sizes get their own tag). The inputs are always single
// tokens (or the "<s>"/"</s>" sentinels, unknown either way).
func tagsAsUnit(tok, name string, known bool) bool {
	if !known || sizeWords[tok] {
		return false
	}
	if k, err := units.KindOf(name); err == nil && k == units.Size {
		return false
	}
	return true
}

// appendShape appends tok's compact shape signature to dst: "1" for
// digits, "a" for letters, with punctuation preserved; runs collapsed.
// "2-4" → "1-1", "hard-cooked" → "a-a", "Flour" → "a".
func appendShape(dst []byte, tok string) []byte {
	var last rune
	for _, r := range tok {
		var c rune
		switch {
		case unicode.IsDigit(r):
			c = '1'
		case unicode.IsLetter(r):
			c = 'a'
		default:
			c = r
		}
		if c != last {
			dst = utf8.AppendRune(dst, c)
			last = c
		}
	}
	return dst
}
