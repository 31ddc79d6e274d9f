package lemma

import "testing"

// TestNounTableMergesExceptionsAndInvariants: the one-probe table must
// reproduce the original two-lookup order — exceptions first, then
// invariants mapping to themselves.
func TestNounTableMergesExceptionsAndInvariants(t *testing.T) {
	for w, want := range nounExceptions {
		if got := Word(w); got != want {
			t.Errorf("Word(%q) = %q, want exception %q", w, got, want)
		}
	}
	for w := range invariants {
		if got := Word(w); got != w {
			t.Errorf("Word(%q) = %q, want invariant unchanged", w, got)
		}
	}
}

// TestNounFastPathGate: the last-byte gate skipping the rule scan must
// be exact — every detachment suffix ends in 's' except "men". Words
// that do not end in 's' and are not "-men" must come back as the
// identical string (zero-copy), while suffixed forms still detach.
func TestNounFastPathGate(t *testing.T) {
	unchanged := []string{"flour", "butter", "chicken", "oven", "corn", "cinnamon"}
	for _, w := range unchanged {
		if got := Word(w); got != w {
			t.Errorf("Word(%q) = %q, want unchanged", w, got)
		}
	}
	detached := map[string]string{
		"cups":      "cup",
		"dishes":    "dish",
		"ramekins":  "ramekin",
		"craftsmen": "craftsman",
	}
	for w, want := range detached {
		if got := Word(w); got != want {
			t.Errorf("Word(%q) = %q, want %q", w, got, want)
		}
	}
}
