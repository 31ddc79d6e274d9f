package pipeline_test

import (
	"reflect"
	"strings"
	"testing"

	"nutriprofile/internal/ner"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/textutil"
	"nutriprofile/internal/units"
)

// FuzzPipelineScratch feeds arbitrary phrases through one long-lived,
// continuously reused Scratch and cross-checks every stage against the
// allocating reference path. The warm scratch (with whatever memo state
// previous inputs left behind) and a fresh scratch must both agree with
// the reference — the property the pooled batch workers rely on.
func FuzzPipelineScratch(f *testing.F) {
	for _, p := range []string{
		"2 cups all-purpose flour",
		"½ cup sugar",
		"1 (8 ounce) package cream cheese , softened",
		"Boiling Water",
		"3/4 cup butter or 3/4 cup margarine",
		"100% whole wheat flour",
		"", ",", "1¼", "<s> </s>",
		"\x00\xff weird bytes",
	} {
		f.Add(p)
	}
	warm := &pipeline.Scratch{}
	var rt ner.RuleTagger
	f.Fuzz(func(t *testing.T, phrase string) {
		wantToks := textutil.Tokenize(phrase)
		wantEx := ner.Extract(rt, phrase)

		for _, sc := range []*pipeline.Scratch{warm, new(pipeline.Scratch)} {
			gotToks := sc.Tokenize(phrase)
			if !(len(wantToks) == 0 && len(gotToks) == 0) && !reflect.DeepEqual(gotToks, wantToks) {
				t.Fatalf("tokens %q, want %q", gotToks, wantToks)
			}
			for i, tok := range wantToks {
				wantName, wantKnown := units.Normalize(tok)
				gotName, gotKnown := sc.UnitFor(i)
				if gotName != wantName || gotKnown != wantKnown {
					t.Fatalf("token %q: UnitFor = (%q, %v), want (%q, %v)",
						tok, gotName, gotKnown, wantName, wantKnown)
				}
			}
			if got, want := string(sc.PhraseKey()), strings.Join(wantToks, " "); got != want {
				t.Fatalf("PhraseKey %q, want %q", got, want)
			}
			if gotEx := sc.Extract(rt); gotEx != wantEx {
				t.Fatalf("extraction %+v, want %+v", gotEx, wantEx)
			}
		}
	})
}
