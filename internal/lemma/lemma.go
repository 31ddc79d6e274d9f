// Package lemma implements a WordNet-style English lemmatizer, the
// substitute for NLTK's WordNetLemmatizer used by the paper in §II-B(b)
// (description-term unification) and §II-C (unit normalization).
//
// The algorithm is WordNet's "morphy": first consult an exception list of
// irregular forms, then apply suffix-detachment rules. The paper notes that
// stemmers were rejected for being too aggressive ("their high aggression");
// morphy-style detachment only removes genuine inflection, which is exactly
// the behaviour reproduced here. The exception list is weighted toward the
// food domain (tomatoes→tomato, leaves→leaf, halves→half, …) because those
// are the irregulars the matcher actually encounters.
package lemma

import "strings"

// PartOfSpeech selects which rule family Lemmatize applies.
type PartOfSpeech int

const (
	// Noun detachment rules; the default for description matching.
	Noun PartOfSpeech = iota
	// Verb detachment rules; used for processing-state words
	// (chopped→chop) when callers want them unified.
	Verb
	// Adjective detachment rules (comparatives/superlatives).
	Adjective
)

// rule is one suffix-detachment rewrite: if the word ends in suffix,
// replace that suffix with repl and check plausibility.
type rule struct {
	suffix, repl string
}

// WordNet's noun detachment rules, in priority order. Longer, more
// specific suffixes first so "dishes"→"dish" fires before "s"→"".
var nounRules = []rule{
	{"ches", "ch"},
	{"shes", "sh"},
	{"sses", "ss"},
	{"xes", "x"},
	{"zes", "z"},
	{"ives", "ife"}, // knives→knife (exception list covers leaves→leaf)
	{"men", "man"},
	{"ies", "y"},
	{"ses", "s"},
	{"s", ""},
}

// verbLexicon lists base forms of the cooking verbs that appear as STATE
// words; it arbitrates between detachment candidates ("diced" → dice, not
// dic) the way WordNet's lexicon lookup does.
var verbLexicon = map[string]bool{
	"bake": true, "baste": true, "beat": true, "blanch": true,
	"blend": true, "boil": true, "braise": true, "brown": true,
	"bruise": true, "brush": true, "carve": true, "chill": true,
	"chop": true, "coat": true, "cook": true, "core": true,
	"cream": true, "crumble": true, "crush": true, "cube": true,
	"cure": true, "dice": true, "dissolve": true, "drain": true,
	"dredge": true, "dress": true, "drizzle": true, "dry": true,
	"dust": true, "fillet": true, "flake": true, "fold": true,
	"fry": true, "garnish": true, "glaze": true, "grate": true,
	"grease": true, "grill": true, "grind": true, "halve": true,
	"heat": true, "hull": true, "julienne": true, "knead": true,
	"marinate": true, "mash": true, "melt": true, "mince": true,
	"mix": true, "pack": true, "pare": true, "peel": true,
	"pickle": true, "pit": true, "poach": true, "pound": true,
	"puree": true, "quarter": true, "rinse": true, "roast": true,
	"roll": true, "rub": true, "scald": true, "score": true,
	"sear": true, "season": true, "seed": true, "shave": true,
	"shell": true, "shred": true, "shuck": true, "sift": true,
	"simmer": true, "skim": true, "skin": true, "slice": true,
	"sliver": true, "smoke": true, "soak": true, "soften": true,
	"steam": true, "steep": true, "stem": true, "stir": true,
	"strain": true, "stuff": true, "sweeten": true, "temper": true,
	"thaw": true, "thicken": true, "toast": true, "toss": true,
	"trim": true, "whip": true, "whisk": true, "zest": true,
}

// nounExceptions lists irregular noun plurals. Culinary vocabulary is
// covered exhaustively; a core of general English irregulars rounds it out.
var nounExceptions = map[string]string{
	// culinary
	"tomatoes":   "tomato",
	"potatoes":   "potato",
	"mangoes":    "mango",
	"leaves":     "leaf",
	"loaves":     "loaf",
	"halves":     "half",
	"cloves":     "clove",
	"olives":     "olive",
	"chives":     "chive",
	"knives":     "knife",
	"berries":    "berry",
	"cherries":   "cherry",
	"anchovies":  "anchovy",
	"calves":     "calf",
	"shelves":    "shelf",
	"wives":      "wife",
	"lives":      "life",
	"radii":      "radius",
	"fungi":      "fungus",
	"cacti":      "cactus",
	"chilies":    "chili",
	"chillies":   "chilli",
	"dashes":     "dash",
	"pinches":    "pinch",
	"bunches":    "bunch",
	"branches":   "branch",
	"peaches":    "peach",
	"radishes":   "radish",
	"squashes":   "squash",
	"geese":      "goose",
	"feet":       "foot",
	"teeth":      "tooth",
	"mice":       "mouse",
	"children":   "child",
	"people":     "person",
	"oxen":       "ox",
	"sheep":      "sheep",
	"fish":       "fish",
	"shrimp":     "shrimp",
	"deer":       "deer",
	"salmon":     "salmon",
	"trout":      "trout",
	"tuna":       "tuna",
	"bass":       "bass",
	"molasses":   "molasses",
	"couscous":   "couscous",
	"hummus":     "hummus",
	"asparagus":  "asparagus",
	"citrus":     "citrus",
	"octopus":    "octopus",
	"watercress": "watercress",
	"cress":      "cress",
	"swiss":      "swiss",
	// measurement-adjacent
	"dozens": "dozen",
	"gross":  "gross",
	"lbs":    "lb",
	"ozs":    "oz",
	"pts":    "pt",
	"qts":    "qt",
	"tbsps":  "tbsp",
	"tsps":   "tsp",
}

var verbExceptions = map[string]string{
	"beaten":   "beat",
	"bought":   "buy",
	"brought":  "bring",
	"cut":      "cut",
	"done":     "do",
	"drawn":    "draw",
	"dried":    "dry",
	"frozen":   "freeze",
	"ground":   "grind",
	"held":     "hold",
	"left":     "leave",
	"made":     "make",
	"melted":   "melt",
	"put":      "put",
	"risen":    "rise",
	"shaken":   "shake",
	"shredded": "shred",
	"slit":     "slit",
	"split":    "split",
	"torn":     "tear",
}

// invariant words end in "s" but are already singular; bare detachment
// would corrupt them.
var invariants = map[string]bool{
	"molasses":   true,
	"hummus":     true,
	"couscous":   true,
	"asparagus":  true,
	"citrus":     true,
	"swiss":      true,
	"bass":       true,
	"cress":      true,
	"watercress": true,
	"gross":      true,
	"plus":       true,
	"dress":      true,
	"press":      true,
	"express":    true,
	"glass":      true,
	"grass":      true,
	"mess":       true,
	"less":       true,
	"boneless":   true,
	"skinless":   true,
	"fatless":    true,
	"seedless":   true,
	"dis":        true,
	"gas":        true,
	"this":       true,
	"is":         true,
	"as":         true,
	"us":         true,
	"anise":      true,
	"blancmange": true,
}

// Lemmatize returns the lemma of word for the given part of speech. The
// input is expected lower-cased (Tokenize output); the result is
// lower-cased. Unknown or already-base forms are returned unchanged —
// morphy never invents forms.
func Lemmatize(word string, pos PartOfSpeech) string {
	if word == "" {
		return word
	}
	switch pos {
	case Noun:
		return lemmatizeNoun(word)
	case Verb:
		return lemmatizeVerb(word)
	case Adjective:
		return lemmatizeAdj(word)
	}
	return word
}

// Word lemmatizes with the noun rules — the default the paper uses for
// both description terms and units.
func Word(word string) string { return Lemmatize(word, Noun) }

// Phrase lemmatizes every token of a pre-tokenized phrase as nouns.
// Tokens that are already base forms (the common case) come back as-is,
// without a copy.
func Phrase(tokens []string) []string {
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		out = append(out, Word(t))
	}
	return out
}

// nounTable merges nounExceptions with the invariants (mapped to
// themselves) so lemmatizeNoun resolves both irregular classes in one
// probe. Exceptions win on overlap ("molasses" appears in both, mapping
// to itself either way), matching the original lookup order.
var nounTable = make(map[string]string, len(nounExceptions)+len(invariants))

func init() {
	for w, l := range nounExceptions {
		nounTable[w] = l
	}
	for w := range invariants {
		if _, ok := nounTable[w]; !ok {
			nounTable[w] = w
		}
	}
}

func lemmatizeNoun(w string) string {
	if lemma, ok := nounTable[w]; ok {
		return lemma
	}
	if len(w) < 3 {
		return w
	}
	// Every noun detachment suffix ends in 's' except "men", so any other
	// ending can skip the rule scan entirely. This is the zero-copy fast
	// path: the typical already-singular token returns here untouched.
	if last := w[len(w)-1]; last != 's' && !(last == 'n' && strings.HasSuffix(w, "men")) {
		return w
	}
	for _, r := range nounRules {
		if !strings.HasSuffix(w, r.suffix) {
			continue
		}
		stem := w[:len(w)-len(r.suffix)] + r.repl
		if plausibleStem(stem) {
			return stem
		}
	}
	return w
}

func lemmatizeVerb(w string) string {
	if lemma, ok := verbExceptions[w]; ok {
		return lemma
	}
	if len(w) < 4 {
		return w
	}
	for _, suffix := range []string{"ied", "ies", "ing", "ed", "es", "s"} {
		if !strings.HasSuffix(w, suffix) || len(w)-len(suffix) < 2 {
			continue
		}
		stem := w[:len(w)-len(suffix)]
		// Candidates in preference order are the bare stem, stem+"e",
		// and the undoubled stem (chopped→chopp→chop); a lexicon hit on
		// any outranks plausibility on any. Candidates are tested
		// inline rather than gathered into a slice so that rejected
		// ones never materialize — only the returned lemma is built.
		switch suffix {
		case "ied", "ies":
			if verbLexicon[stem+"y"] || plausibleStem(stem+"y") {
				return stem + "y"
			}
		case "s":
			if verbLexicon[stem] || (len(stem) >= 3 && plausibleStem(stem)) {
				return stem
			}
		default:
			undoubled := ""
			if len(stem) >= 3 && stem[len(stem)-1] == stem[len(stem)-2] {
				undoubled = stem[:len(stem)-1]
			}
			if verbLexicon[stem] {
				return stem
			}
			if verbLexicon[stem+"e"] {
				return stem + "e"
			}
			if undoubled != "" && verbLexicon[undoubled] {
				return undoubled
			}
			if len(stem) >= 3 && plausibleStem(stem) {
				return stem
			}
			if plausibleStem(stem + "e") {
				return stem + "e"
			}
			if len(undoubled) >= 3 && plausibleStem(undoubled) {
				return undoubled
			}
		}
	}
	return w
}

// adjLexicon arbitrates between bare-strip and +e candidates for
// comparative/superlative detachment (larger → large, not larg).
var adjLexicon = map[string]bool{
	"coarse": true, "dense": true, "fine": true, "large": true,
	"loose": true, "pale": true, "ripe": true, "stale": true,
	"wide": true, "close": true, "pure": true, "simple": true,
}

func lemmatizeAdj(w string) string {
	if len(w) < 4 {
		return w
	}
	for _, suffix := range []string{"est", "er"} {
		if !strings.HasSuffix(w, suffix) || len(w)-len(suffix) < 3 {
			continue
		}
		stem := w[:len(w)-len(suffix)]
		cands := []string{stem, stem + "e"}
		if len(stem) >= 3 && stem[len(stem)-1] == stem[len(stem)-2] {
			cands = append(cands, stem[:len(stem)-1])
		}
		for _, c := range cands {
			if adjLexicon[c] {
				return c
			}
		}
		if plausibleStem(stem) {
			return stem
		}
	}
	return w
}

// plausibleStem rejects detachments that leave no vowel (a morphy-style
// sanity check: "ms"→"m" is fine but "s"→"" is not a word).
func plausibleStem(s string) bool {
	if len(s) < 2 {
		return false
	}
	return strings.ContainsAny(s, "aeiouy")
}
