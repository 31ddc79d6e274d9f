package core

// Hot-swappable database snapshots (DESIGN.md §13). The estimator's
// database, matcher and interned vocabulary version together behind one
// atomic pointer: a request pins the pointer once and computes entirely
// against that Snapshot, so a concurrent Install can never give it a
// matcher from one database and nutrient vectors from another. RCU
// rather than an RWMutex: readers pay one atomic load (the serving hot
// path keeps its 0 allocs/op and gains no lock), writers build the new
// state off to the side and publish it with one store — in-flight
// requests simply finish on the snapshot they pinned.
//
// Cache consistency across a swap is the subtle part. Two caches hold
// snapshot-derived results: the phrase and match memo caches. The
// invalidation protocol:
//
//   - pin() snapshots the memo caches' purge generations BEFORE the
//     atomic pointer load, and results are stored with PutHashGen.
//     Install publishes the new snapshot pointer FIRST, then purges
//     both caches. With Go's sequentially consistent atomics, a reader
//     that captured a post-purge cache generation must observe the
//     post-swap pointer on its subsequent load; a reader that captured
//     a pre-purge generation has its store either dropped (generation
//     mismatch, checked under the shard lock) or landed before the
//     purge clears that shard. Either way no result computed against
//     snapshot N is readable from a cache after the purge that retired
//     N.
//
//   - ObserveUnits changes the unit statistics, not the database, so it
//     publishes nothing: it applies its counts, then purges the phrase
//     cache. The same generation argument, with the counts in place of
//     the pointer, keeps a result computed from the old counts out of
//     the cache.
//
// Cached records point at the nutrient column of the food they matched
// (record.go), so a retired database stays reachable until the purged
// entries holding its records are collected.
//
// Every miss computes against the snapshot its own request pinned, so
// no request ever returns a result computed against another snapshot.

import (
	"fmt"

	"nutriprofile/internal/match"
	"nutriprofile/internal/usda"
)

// Snapshot is one immutable (database, matcher, vocabulary) triple plus
// its version identity. Estimation reads never mix state across two
// snapshots: every request resolves descriptions, weight tables and
// nutrient vectors against the single snapshot it pinned.
type Snapshot struct {
	db      *usda.DB
	matcher *match.Matcher
	// version counts database swaps (Install), starting at 1 for the
	// boot database. Monotonic; /v1/stats and /admin/reload expose it.
	version uint64
	// source describes where the database came from (boot flag, image
	// path) for observability.
	source string
}

// DB returns the snapshot's composition table.
func (s *Snapshot) DB() *usda.DB { return s.db }

// Matcher returns the snapshot's description matcher.
func (s *Snapshot) Matcher() *match.Matcher { return s.matcher }

// Version returns the snapshot's swap version.
func (s *Snapshot) Version() uint64 { return s.version }

// Source describes the snapshot's origin.
func (s *Snapshot) Source() string { return s.source }

// view is one request's pinned read context: the snapshot plus the
// memo-cache generations captured BEFORE the snapshot load (the order
// the no-stale-store argument above requires). Threaded by value
// through the estimation call chain.
type view struct {
	snap      *Snapshot
	phraseGen uint64
	matchGen  uint64
}

// pin captures a consistent read context. Cache generations first, then
// the snapshot pointer — never reorder these loads (see the package
// comment for why).
func (e *Estimator) pin() view {
	var v view
	if e.phraseCache != nil {
		v.phraseGen = e.phraseCache.Gen()
		v.matchGen = e.matchCache.Gen()
	}
	v.snap = e.snap.Load()
	return v
}

// Current returns the live snapshot. Requests that need consistency
// across multiple calls should resolve everything through one Snapshot
// rather than calling accessors repeatedly.
func (e *Estimator) Current() *Snapshot { return e.snap.Load() }

// SnapshotStats is the wire form of the live snapshot's identity
// (nutriserve GET /v1/stats, POST /admin/reload).
type SnapshotStats struct {
	Version uint64 `json:"version"`
	Foods   int    `json:"foods"`
	Source  string `json:"source"`
}

// SnapshotStats reports the live snapshot's identity.
func (e *Estimator) SnapshotStats() SnapshotStats {
	s := e.snap.Load()
	return SnapshotStats{Version: s.version, Foods: s.db.Len(), Source: s.source}
}

// Install atomically replaces the estimator's database under live
// traffic: requests already pinned to the old snapshot finish on it
// unperturbed, requests pinned after the store see only the new one.
// The matcher is built before the swap from idx (a baked image's, or
// match.BuildIndex of db; validated structurally, and required), so
// the swap itself is one pointer store plus cache purges. Concurrent
// Installs serialize; versions are strictly monotonic.
func (e *Estimator) Install(db *usda.DB, idx *match.Index, source string) (SnapshotStats, error) {
	m, err := match.NewFromIndex(db, match.DefaultOptions(), idx)
	if err != nil {
		return SnapshotStats{}, fmt.Errorf("core: installing database: %w", err)
	}

	e.swapMu.Lock()
	old := e.snap.Load()
	ns := &Snapshot{
		db: db, matcher: m,
		version: old.version + 1,
		source:  source,
	}
	// Publish first, purge second: a reader that observes a post-purge
	// cache generation is thereby guaranteed to load ns, not old.
	e.snap.Store(ns)
	if e.phraseCache != nil {
		e.phraseCache.Purge()
		e.matchCache.Purge()
	}
	e.swapMu.Unlock()
	return SnapshotStats{Version: ns.version, Foods: db.Len(), Source: source}, nil
}
