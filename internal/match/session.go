package match

// Session pins one scoring arena to a caller for many queries, so a
// batch worker pays the arena pool checkout once per worker lifetime
// instead of once per phrase. Match/Rank acquire and release an arena
// per call, which is free when the sync.Pool's per-P cache holds one —
// but under an oversubscribed multi-core pool, goroutine migration and
// GC cycles drain the per-P caches, and every miss rebuilds the dense
// per-document accumulator arrays from scratch (the measured allocs/op
// inflation of the parallel batch path; DESIGN.md §12).
//
// A Session is not safe for concurrent use: it belongs to exactly one
// goroutine between NewSession and Close. Results are identical to the
// pool-backed entry points — a Session only changes who holds the arena
// between queries.
type Session struct {
	m *Matcher
	a *arena
}

// NewSession checks one arena out of the matcher's pool and pins it.
// Callers must Close to return the arena; an abandoned Session is plain
// garbage (the arena is simply collected, like any pool miss).
func (m *Matcher) NewSession() *Session {
	return &Session{m: m, a: m.getArena()}
}

// Close returns the pinned arena to the matcher's pool. The Session
// must not be used afterwards.
func (s *Session) Close() {
	if s.a != nil {
		s.m.putArena(s.a)
		s.a = nil
	}
}

// Trim drops the pinned arena's query-sized buffers if an oversized
// query grew them; owners that keep a Session between batches call it
// on release.
func (s *Session) Trim() {
	if s.a != nil {
		s.a.trim()
	}
}

// Match is Matcher.Match on the pinned arena.
func (s *Session) Match(q Query) (Result, bool) {
	cands := s.m.rankCands(s.a, q, 1)
	if len(cands) == 0 {
		return Result{}, false
	}
	var r Result
	s.m.fillResult(s.a, cands[0], &r)
	return r, true
}

// MatchFuzzy is Matcher.MatchFuzzy on the pinned arena: an exact Match
// first, then a corrected retry for queries that found nothing.
func (s *Session) MatchFuzzy(q Query) (Result, bool) {
	if r, ok := s.Match(q); ok {
		return r, true
	}
	if fixed, changed := s.m.CorrectQuery(q); changed {
		return s.Match(fixed)
	}
	return Result{}, false
}
