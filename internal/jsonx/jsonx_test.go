package jsonx

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestAppendStringMatchesEncodingJSON pins AppendString byte-for-byte
// against json.Marshal across every escaping class the encoder
// branches on.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"",
		"plain ascii",
		"2 cups flour",
		`quote " backslash \ slash /`,
		"control \b \f \n \r \t",
		"low controls \x00\x01\x1f",
		"html <b>&amp;</b> >",
		"unicode crème brûlée 漢字 émincé",
		"astral \U0001F35E bread emoji",
		"line sep   para sep  ",
		"invalid utf8 \xff\xfe trailing",
		"truncated rune \xe2\x82",
		"lone continuation \x80",
		"mixed \xffvalid end\x01",
		strings.Repeat("a", 5000) + "\n" + strings.Repeat("b", 100),
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		got := AppendString(nil, s)
		if string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON pins AppendFloat across the
// 'f'/'e' switchover boundaries and the exponent-zero-stripping fixup.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.5, -0.5, 3.14159, 123.456, 42,
		1e-5, 1e-6, 9.999e-7, 1e-7, 1e-9, 1e-21, 5e-324,
		1e20, 9.9e20, 1e21, 1.5e21, 1e22, 1e300, math.MaxFloat64,
		-1e-7, -1e21, -1e22,
		251.0, 0.079, 1100, 0.0000015,
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		got := AppendFloat(nil, f)
		if string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

func TestAppendIntBool(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, -9007, math.MaxInt64, math.MinInt64} {
		want, _ := json.Marshal(v)
		if got := AppendInt(nil, v); string(got) != string(want) {
			t.Errorf("AppendInt(%d) = %s, want %s", v, got, want)
		}
	}
	if got := AppendBool(nil, true); string(got) != "true" {
		t.Errorf("AppendBool(true) = %s", got)
	}
	if got := AppendBool(AppendBool(nil, false), true); string(got) != "falsetrue" {
		t.Errorf("AppendBool chain = %s", got)
	}
}

// estReq mirrors the server's estimate request for differential
// decoding: the hand-rolled loop below must accept and reject exactly
// what encoding/json's DisallowUnknownFields decoder does.
type estReq struct {
	Phrase string `json:"phrase"`
}

// decodeEstReq drives the pull decoder the way the server does.
func decodeEstReq(data []byte) (estReq, error) {
	var req estReq
	var d Decoder
	d.Reset(data)
	isNull, err := d.ObjectStart()
	if err != nil || isNull {
		return req, err
	}
	for first := true; ; first = false {
		key, ok, err := d.Member(first)
		if err != nil {
			return req, err
		}
		if !ok {
			return req, nil
		}
		switch string(key) {
		case "phrase":
			val, isNull, err := d.String()
			if err != nil {
				return req, err
			}
			if !isNull {
				req.Phrase = string(val)
			}
		default:
			return req, fmt.Errorf("unknown field %q", key)
		}
	}
}

// recReq mirrors the server's recipe request.
type recReq struct {
	Ingredients []string `json:"ingredients"`
	Servings    int      `json:"servings"`
	Method      string   `json:"method"`
}

func decodeRecReq(data []byte) (recReq, error) {
	var req recReq
	var d Decoder
	d.Reset(data)
	isNull, err := d.ObjectStart()
	if err != nil || isNull {
		return req, err
	}
	for first := true; ; first = false {
		key, ok, err := d.Member(first)
		if err != nil {
			return req, err
		}
		if !ok {
			return req, nil
		}
		switch string(key) {
		case "ingredients":
			req.Ingredients = req.Ingredients[:0]
			isNull, err := d.ArrayStart()
			if err != nil {
				return req, err
			}
			if isNull {
				req.Ingredients = nil
				continue
			}
			for efirst := true; ; efirst = false {
				more, err := d.ArrayNext(efirst)
				if err != nil {
					return req, err
				}
				if !more {
					break
				}
				val, _, err := d.String()
				if err != nil {
					return req, err
				}
				req.Ingredients = append(req.Ingredients, string(val))
			}
			if req.Ingredients == nil {
				req.Ingredients = []string{}
			}
		case "servings":
			v, _, err := d.Int()
			if err != nil {
				return req, err
			}
			req.Servings = int(v)
		case "method":
			val, isNull, err := d.String()
			if err != nil {
				return req, err
			}
			if !isNull {
				req.Method = string(val)
			}
		default:
			return req, fmt.Errorf("unknown field %q", key)
		}
	}
}

// TestDecoderDifferentialEstimate feeds the same documents to the pull
// decoder and to encoding/json (DisallowUnknownFields, one-value
// Decode) and asserts they agree on accept/reject and on the decoded
// value.
func TestDecoderDifferentialEstimate(t *testing.T) {
	cases := []string{
		`{"phrase":"2 cups flour"}`,
		`{"phrase":""}`,
		`{}`,
		`null`,
		` { "phrase" : "x" } `,
		`{"phrase":"a","phrase":"b"}`,          // last duplicate wins
		`{"phrase":null}`,                      // null → no-op
		`{"phrase":"esc \n \" \\ é \/"}`,       // escapes
		`{"phrase":"🍞"}`,                       // surrogate pair
		`{"phrase":"\ud800"}`,                  // unpaired surrogate → U+FFFD
		`{"phrase":"\ud800x"}`,                 // high surrogate then ASCII
		`{"phrase":"\ud800\ud800"}`,            // two high surrogates
		"{\"phrase\":\"raw \xff bytes\"}",      // invalid UTF-8 → U+FFFD
		`{"phrase":"crème brûlée"}`,            // valid multibyte
		`{"phrase":"x"} trailing garbage here`, // Decode reads one value
		`{"phrase":"x"}{"phrase":"y"}`,
		// rejects
		``,
		`{`,
		`{"phrase"`,
		`{"phrase":`,
		`{"phrase":"unterminated`,
		`{"phrase":"bad esc \q"}`,
		`{"phrase":"bad hex \u00zz"}`,
		"{\"phrase\":\"raw ctrl \x01\"}",
		`{"phrase":7}`,
		`{"phrase":"a" "b":1}`,
		`{"unknown":"x"}`,
		`{"phrase":"a","unknown":1}`,
		`[1,2]`,
		`"just a string"`,
		`{"phrase":"a",}`,
		`{,}`,
	}
	for _, doc := range cases {
		var want estReq
		dec := json.NewDecoder(strings.NewReader(doc))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)

		got, gotErr := decodeEstReq([]byte(doc))
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("doc %q: encoding/json err=%v, jsonx err=%v", doc, wantErr, gotErr)
			continue
		}
		if wantErr == nil && got != want {
			t.Errorf("doc %q: decoded %+v, want %+v", doc, got, want)
		}
	}
}

func TestDecoderDifferentialRecipe(t *testing.T) {
	cases := []string{
		`{"ingredients":["2 cups flour","1 egg"],"servings":4,"method":"fried"}`,
		`{"ingredients":[],"servings":0}`,
		`{"ingredients":null}`,
		`{"servings":-3}`,
		`{"servings":null}`,
		`{"ingredients":["a"],"ingredients":["b","c"]}`, // last duplicate wins
		`{"ingredients":[null,"x"]}`,                    // null element → ""? (no-op keeps zero)
		`{"method":"Fried"}`,
		`{"servings": 12 , "method" : "boiled" }`,
		`null`,
		`{}`,
		// rejects
		`{"ingredients":"flour"}`,
		`{"servings":4.5}`,
		`{"servings":1e2}`,
		`{"servings":"4"}`,
		`{"servings":04}`,
		`{"servings":+4}`,
		`{"servings":--4}`,
		`{"servings":4.}`,
		`{"servings":4e}`,
		`{"ingredients":[1,2]}`,
		`{"ingredients":["a",]}`,
		`{"ingredients":["a" "b"]}`,
		`{"extra":true}`,
	}
	for _, doc := range cases {
		var want recReq
		dec := json.NewDecoder(strings.NewReader(doc))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)

		got, gotErr := decodeRecReq([]byte(doc))
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("doc %q: encoding/json err=%v, jsonx err=%v", doc, wantErr, gotErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if got.Servings != want.Servings || got.Method != want.Method ||
			len(got.Ingredients) != len(want.Ingredients) ||
			(got.Ingredients == nil) != (want.Ingredients == nil) {
			t.Errorf("doc %q: decoded %+v, want %+v", doc, got, want)
			continue
		}
		for i := range got.Ingredients {
			if got.Ingredients[i] != want.Ingredients[i] {
				t.Errorf("doc %q: ingredient %d = %q, want %q", doc, i, got.Ingredients[i], want.Ingredients[i])
			}
		}
	}
}

// TestDecoderScratchStability asserts values returned earlier in a
// document survive later slow-path decodes (the append-only contract).
func TestDecoderScratchStability(t *testing.T) {
	doc := []byte(`{"a":"first\nvalue","b":"second\tvalue","c":"third é"}`)
	var d Decoder
	d.Reset(doc)
	if _, err := d.ObjectStart(); err != nil {
		t.Fatal(err)
	}
	var vals [][]byte
	for first := true; ; first = false {
		_, ok, err := d.Member(first)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		v, _, err := d.String()
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	want := []string{"first\nvalue", "second\tvalue", "third é"}
	for i, v := range vals {
		if string(v) != want[i] {
			t.Errorf("value %d = %q, want %q (scratch reuse clobbered it?)", i, v, want[i])
		}
	}
}

// TestDecodeZeroAllocsWarm guards the steady-state contract: decoding a
// typical request with a warm decoder does not allocate.
func TestDecodeZeroAllocsWarm(t *testing.T) {
	doc := []byte(`{"phrase":"2 cups all purpose flour"}`)
	var d Decoder
	var out []byte
	decode := func() {
		d.Reset(doc)
		if _, err := d.ObjectStart(); err != nil {
			t.Fatal(err)
		}
		for first := true; ; first = false {
			key, ok, err := d.Member(first)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if string(key) != "phrase" {
				t.Fatalf("key %q", key)
			}
			v, _, err := d.String()
			if err != nil {
				t.Fatal(err)
			}
			out = v
		}
	}
	decode() // warm
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("warm decode allocates %v per run, want 0", allocs)
	}
	if string(out) != "2 cups all purpose flour" {
		t.Errorf("decoded %q", out)
	}
}

// TestResetKeepPreservesViews pins the NDJSON-window contract: views
// returned before a ResetKeep stay intact while the decoder moves on to
// later lines, and a plain Reset is the point where they die (the
// scratch is reclaimed and may be overwritten).
func TestResetKeepPreservesViews(t *testing.T) {
	decodeOnly := func(t *testing.T, d *Decoder, doc string) []byte {
		t.Helper()
		if _, err := d.ObjectStart(); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := d.Member(true); err != nil || !ok {
			t.Fatalf("member: %v", err)
		}
		v, _, err := d.String()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	var d Decoder
	d.Reset([]byte(`{"a":"first\nline"}`))
	first := decodeOnly(t, &d, "line 1")

	// Re-point at the next window lines without reclaiming the scratch.
	d.ResetKeep([]byte(`{"b":"second\tline"}`))
	second := decodeOnly(t, &d, "line 2")
	d.ResetKeep([]byte(`{"c":"` + strings.Repeat(`xé`, 400) + `"}`)) // force scratch growth
	third := decodeOnly(t, &d, "line 3")

	if string(first) != "first\nline" {
		t.Errorf("first view clobbered across ResetKeep: %q", first)
	}
	if string(second) != "second\tline" {
		t.Errorf("second view clobbered across ResetKeep: %q", second)
	}
	if want := strings.Repeat("xé", 400); string(third) != want {
		t.Errorf("post-growth view wrong: %q", third)
	}

	// A plain Reset reclaims the scratch: the next escaped decode may
	// reuse the same backing array, so old views are dead. Only assert
	// what the contract promises — the new value is correct.
	d.Reset([]byte(`{"d":"after\rreset"}`))
	if v := decodeOnly(t, &d, "after reset"); string(v) != "after\rreset" {
		t.Errorf("decode after Reset: %q", v)
	}
}
