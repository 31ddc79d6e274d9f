// Package pipeline provides the per-goroutine scratch arena the NLP
// front-end (tokenize → NER → unit lookup → cache keys) runs in. One
// Scratch holds every buffer and memo the per-phrase hot path needs, so
// a warm Scratch processes a phrase with zero heap allocations.
// core.Estimator's worker environments each own one: every estimated
// phrase, through whichever entry point, runs on an environment's
// scratch, reused across every phrase of the checkout.
//
// Ownership model (DESIGN.md §10): a Scratch belongs to exactly one
// goroutine at a time — its environment's, between checkout and
// release. Results that outlive the phrase (Extraction fields, unit
// names, cache keys) are copied out of the arena before the next phrase
// reuses it; everything else (token slices, Viterbi arrays, key
// buffers) aliases the arena and is valid only until the next Tokenize
// call.
package pipeline

import (
	"nutriprofile/internal/ner"
	"nutriprofile/internal/textutil"
)

// maxRetainedPhrase is the longest phrase whose state a Scratch keeps
// once released (Trim). Its buffers grow to the longest phrase it has
// seen (tokens and Viterbi rows: tens of bytes per token) and its memo
// maps clone the tokens they key on, so one pathological phrase near
// the request-body limit would otherwise pin several times its own size
// for as long as the Scratch lives in a worker environment.
// Real ingredient phrases are well under 200 bytes.
const maxRetainedPhrase = 4 << 10

// Scratch is the arena. The zero value is ready to use; buffers grow to
// the corpus' longest phrase and then stop allocating. Not safe for
// concurrent use.
type Scratch struct {
	// NER is the tagging/assembly sub-arena, passed to ner.ExtractScratch.
	// Its memo also answers UnitFor.
	NER ner.Scratch

	tokens []string
	folder textutil.Folder // buffers for lowered cased tokens and expanded glyphs

	keyBuf  []byte // phrase-cache key scratch
	qkeyBuf []byte // match-cache key scratch (distinct: both live at once)

	longest int // longest phrase tokenized since the scratch was last reset
}

// Tokenize resets the scratch to a new phrase and returns its tokens.
// Token values equal textutil.Tokenize's; the slice aliases the arena.
// A cased token ("Cups") is lowered, and a phrase with vulgar-fraction
// glyphs ("1½ cups") expanded, into the folder's buffers rather than
// new strings, so such tokens view bytes the next phrase overwrites —
// every memo clones what it keeps, the rule that already covers phrases
// viewing a caller-reused buffer. It readies the NER arena's unit slots
// for the new tokens.
func (sc *Scratch) Tokenize(phrase string) []string {
	sc.longest = max(sc.longest, len(phrase))
	sc.tokens = textutil.AppendTokensFolded(sc.tokens[:0], phrase, &sc.folder)
	sc.NER.BeginPhrase(len(sc.tokens))
	return sc.tokens
}

// Tokens returns the current phrase's tokens.
func (sc *Scratch) Tokens() []string { return sc.tokens }

// UnitFor resolves token i of the current phrase as a unit, equal to
// units.Normalize(token), through the NER arena's per-position slots and
// memo (ner.Scratch.UnitAt) — the ones the tagger's unit predicate
// reads. A known unit's name never aliases the phrase.
func (sc *Scratch) UnitFor(i int) (string, bool) {
	return sc.NER.UnitAt(sc.tokens, i)
}

// Extract tags the current phrase with t and assembles the Extraction
// through the NER sub-arena. Field values are byte-identical to
// ner.Extract over the raw phrase.
func (sc *Scratch) Extract(t ner.Tagger) ner.Extraction {
	return ner.ExtractScratch(t, sc.tokens, &sc.NER)
}

// PhraseKey renders the current token stream as the phrase-cache key,
// byte-equal to strings.Join(tokens, " "). The slice aliases the arena
// and stays valid across JoinKey calls (separate buffers), but not
// across Tokenize.
func (sc *Scratch) PhraseKey() []byte {
	b := sc.keyBuf[:0]
	for i, t := range sc.tokens {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, t...)
	}
	sc.keyBuf = b
	return b
}

// JoinKey renders fields separated by 0x1f, byte-equal to joining them
// with "\x1f" — the match-cache key shape.
func (sc *Scratch) JoinKey(fields ...string) []byte {
	b := sc.qkeyBuf[:0]
	for i, f := range fields {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, f...)
	}
	sc.qkeyBuf = b
	return b
}

// Trim readies the scratch to be kept between requests. It drops the
// last phrase's token views, and the unit slots' views of it, which
// would otherwise pin the buffer the phrase was read into (a pooled
// batch buffer can be megabytes). If a phrase longer than
// maxRetainedPhrase went through it since the last reset, it resets the
// scratch to its zero value, dropping every buffer and memo; otherwise
// the memos stay warm. Owners that keep a Scratch across requests
// (core's worker environments) call it on release.
func (sc *Scratch) Trim() {
	if sc.longest > maxRetainedPhrase {
		*sc = Scratch{}
		return
	}
	clear(sc.tokens[:cap(sc.tokens)])
	sc.tokens = sc.tokens[:0]
	sc.NER.BeginPhrase(0)
}
