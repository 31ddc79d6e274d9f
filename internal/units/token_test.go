package units

import (
	"testing"
	"testing/quick"

	"nutriprofile/internal/textutil"
)

// checkTokenEquivalence asserts the single-token fast path,
// NormalizeToken, agrees with Normalize. Known-ness must always agree;
// the name must agree whenever the unit is known (unknown names are
// never consumed, and inputs that are not Tokenize-emitted tokens, like
// the "<s>" sentinel, legitimately clean differently when unknown).
func checkTokenEquivalence(t *testing.T, tok string) {
	t.Helper()
	wantName, wantKnown := Normalize(tok)
	if gotName, gotKnown := NormalizeToken(tok); gotKnown != wantKnown || (wantKnown && gotName != wantName) {
		t.Errorf("NormalizeToken(%q) = (%q, %v), want (%q, %v)",
			tok, gotName, gotKnown, wantName, wantKnown)
	}
}

// TestNormalizeTokenEquivalence sweeps the full canonical + alias
// inventory (singular and pluralized spellings) plus the NER sentinels:
// skipping Normalize's re-tokenization must never change a resolution.
func TestNormalizeTokenEquivalence(t *testing.T) {
	var toks []string
	for c := range canonical {
		toks = append(toks, c, c+"s")
	}
	for a := range aliases {
		toks = append(toks, a, a+"s")
	}
	toks = append(toks,
		"<s>", "</s>", "", ",", "(", ")", "1", "1/2", "2-4", "%",
		"flour", "butter", "tomatoes", "berries", "all-purpose",
	)
	for _, tok := range toks {
		checkTokenEquivalence(t, tok)
	}
}

// TestNormalizeTokenEquivalenceFuzz extends the sweep to arbitrary
// input: every token Tokenize emits must resolve identically through
// both entry points.
func TestNormalizeTokenEquivalenceFuzz(t *testing.T) {
	check := func(s string) bool {
		for _, tok := range textutil.Tokenize(s) {
			wantName, wantKnown := Normalize(tok)
			gotName, gotKnown := NormalizeToken(tok)
			if gotName != wantName || gotKnown != wantKnown {
				t.Logf("NormalizeToken(%q) = (%q, %v), want (%q, %v)",
					tok, gotName, gotKnown, wantName, wantKnown)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}
