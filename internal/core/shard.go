package core

// The per-core sharded estimator (DESIGN.md §12). Four perf PRs made
// the single-core pipeline ~0-alloc, yet parallel batch throughput did
// not scale: every worker wrote the same memo-stat cache lines, every
// cache miss serialized on one singleflight map, and the sync.Pool
// backing the scratch arenas drained under oversubscription so workers
// kept re-warming cold scratches (the measured allocs/op inflation at
// -cpu 4). This file restructures the batch layer around ownership:
//
//   - Worker environments (scratch + pinned match session) are owned by
//     the Estimator in a bounded LIFO free list, not by a sync.Pool, so
//     neither GC cycles nor goroutine migration can drain them; the
//     warmest environment is always reused first.
//
//   - The phrase space is hash-partitioned onto numSlots shards, each
//     with its own lock-free-on-the-hot-path L1 result cache. In a
//     sharded batch, worker w exclusively owns the slots s ≡ w (mod
//     workers) — the same phrase always hashes to the same slot, so no
//     two workers ever touch one slot's L1, and repeat phrases are
//     served without a single shared-memory write.
//
//   - Per-worker stats accumulate in plain locals and flush to a
//     cache-line-striped aggregate once per batch (metrics.Striped),
//     instead of per-phrase atomics on shared counters.
//
// The shared L2 (memo.Cache) sits below the slots and is itself
// sharded by the same FNV-1a hash family; it only sees first-contact
// traffic, so its (padded, per-shard) locks stay uncontended.

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"

	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/metrics"
	"nutriprofile/internal/pipeline"
)

const (
	// numSlots is the shard count of the phrase-hash partition (a power
	// of two). Fixed rather than derived from GOMAXPROCS so the
	// phrase→shard mapping is stable for the Estimator's lifetime no
	// matter how many workers any particular batch runs: workers own
	// slot subsets, slots never migrate between hashes. 32 comfortably
	// exceeds any sane worker count for phrase-scale work while keeping
	// the slot array small.
	numSlots = 32

	// maxFreeEnvs bounds the worker-environment free list: more
	// environments than this can exist transiently (concurrent batches
	// each holding several), but only this many are retained.
	maxFreeEnvs = 64

	// statStripes is the stripe count of the batched stats aggregates.
	statStripes = 16
)

// slot is one shard of the phrase-hash partition: a generation-gated L1
// cache of phrase results keyed by raw phrase. A slot is locked
// for the whole duration of a sharded batch by the one worker that owns
// it, so the L1 map is read and written without any per-phrase
// synchronization. Padded so neighboring slots' locks never share a
// cache line.
type slot struct {
	mu  sync.Mutex
	l1  map[string]l1Entry
	gen uint64 // Snapshot.gen the l1 contents were computed against
	// resident mirrors len(l1) for ShardStats, which must not wait on a
	// slot an in-flight batch holds. Only the owner writes it.
	resident atomic.Int64
	_        [64]byte
}

// l1Entry is one slot-L1 cached result: a reference to the phrase
// cache's record of it, plus the L2 key hash the record was stored
// under. Holding the reference rather than a copy keeps the entry at 16
// bytes, stored inline in the map, and a phrase both tiers hold
// resident once; the record stays valid after the L2 evicts it. A
// record whose L2 store was dropped (a generation bump raced the miss)
// is the L1's own copy. L1 hits never reach the L2 cache, so the
// stored hash is replayed into the TinyLFU admission sketch
// (memo.TouchHash) on every hit — without it, exactly the hottest
// phrases (the ones the L1 absorbs) would stop accruing frequency and
// lose admission duels to cold bulk-scan keys after a sketch reset.
type l1Entry struct {
	rec *record
	l2h uint64 // phrase-cache key hash
}

// env is one worker environment: the per-goroutine NLP scratch arena
// plus a match session pinned to one matcher (its own scoring arena).
// Environments are checked out once per worker per batch and returned
// warm; m records which matcher the session belongs to so a checkout
// after a snapshot swap re-pins instead of scoring against the retired
// index.
type env struct {
	sc   *pipeline.Scratch
	sess *match.Session
	m    *match.Matcher
}

// worker is the per-batch-worker state: its environment and the
// batch-local stat accumulators that flush on release.
type worker struct {
	env     *env
	phrases uint64 // phrases estimated by this worker this batch
	l1Hits  uint64 // phrases served from an owned slot's L1
}

// shardState is the Estimator's sharded-batch machinery; embedded by
// value (it is a few KB of padded slots).
type shardState struct {
	slots [numSlots]slot
	// l1Cap is each slot's L1 capacity: Options.CacheSize split evenly
	// over the slots, at least one entry each, so the slot L1s together
	// hold at most CacheSize results and -cache N bounds every result
	// tier (phrase cache, match cache, slot L1s) at N entries. A fixed
	// 4,096 per slot let the L1s grow to 16× the default budget: at
	// paper-corpus scale they kept every phrase /v1/recipe had seen
	// resident (16 of 26 MB live heap in a mixed bulk+interactive run)
	// while serving 0.5 % of its phrases. A full slot is cleared
	// wholesale: per-entry random eviction at the same bound lifted the
	// Zipf L1 hit ratio only 0.67 → 0.70 and kept every slot at its
	// peak (DESIGN.md §12).
	l1Cap int

	envMu    sync.Mutex
	freeEnvs []*env
	envsMade uint64 // lifetime environments created, under envMu

	// Batched-flush aggregates: workers accumulate locally and Add once
	// per batch, striped so concurrent flushes don't share lines.
	phrasesDone *metrics.Striped
	l1Hits      *metrics.Striped
	flushes     *metrics.Striped
}

func (s *shardState) init(cacheSize int) {
	s.l1Cap = max(1, cacheSize/numSlots)
	s.phrasesDone = metrics.NewStriped(statStripes)
	s.l1Hits = metrics.NewStriped(statStripes)
	s.flushes = metrics.NewStriped(statStripes)
}

// ShardStats is the observability snapshot of the sharded batch layer
// (nutriserve's GET /v1/stats exposes it alongside the cache counters).
type ShardStats struct {
	Slots         int    `json:"slots"`          // phrase-hash partition width
	Phrases       uint64 `json:"phrases"`        // phrases estimated through batch workers
	L1Hits        uint64 `json:"l1_hits"`        // served from an owned slot's L1
	L1Entries     uint64 `json:"l1_entries"`     // results resident in the slot L1s, at most CacheSize
	WorkerFlushes uint64 `json:"worker_flushes"` // per-worker batched stat flushes
	Envs          uint64 `json:"envs"`           // worker environments ever created
}

// ShardStats reports the sharded batch layer's counters. Totals are
// exact once in-flight batches drain (each worker flushes exactly once).
func (e *Estimator) ShardStats() ShardStats {
	e.envMu.Lock()
	envs := e.envsMade
	e.envMu.Unlock()
	var resident int64
	for i := range e.slots {
		resident += e.slots[i].resident.Load()
	}
	return ShardStats{
		Slots:         numSlots,
		Phrases:       e.phrasesDone.Sum(),
		L1Hits:        e.l1Hits.Sum(),
		L1Entries:     uint64(resident),
		WorkerFlushes: e.flushes.Sum(),
		Envs:          envs,
	}
}

// slotIndex maps a raw phrase to its owning shard — a pure function of
// the phrase bytes (the same FNV-1a family the memo caches shard on),
// stable for the Estimator's lifetime.
func slotIndex(phrase string) int {
	return int(memo.HashString(phrase) & (numSlots - 1))
}

// getEnv checks a worker environment out of the estimator-owned free
// list, creating one when the list is empty. LIFO: the most recently
// returned (warmest) environment is reused first. snap is the batch's
// pinned snapshot; an environment whose session was pinned to a
// now-retired matcher is re-pinned before reuse, so a worker never
// scores against a different index than the snapshot it estimates with.
func (e *Estimator) getEnv(snap *Snapshot) *env {
	e.envMu.Lock()
	if n := len(e.freeEnvs); n > 0 {
		v := e.freeEnvs[n-1]
		e.freeEnvs[n-1] = nil
		e.freeEnvs = e.freeEnvs[:n-1]
		e.envMu.Unlock()
		if v.m != snap.matcher {
			v.sess.Close()
			v.sess = snap.matcher.NewSession()
			v.m = snap.matcher
		}
		return v
	}
	e.envsMade++
	e.envMu.Unlock()
	return &env{sc: new(pipeline.Scratch), sess: snap.matcher.NewSession(), m: snap.matcher}
}

// putEnv returns an environment; beyond maxFreeEnvs it is dismantled
// (the session's arena goes back to the matcher pool) and dropped. A
// kept environment first drops what an oversized phrase grew.
func (e *Estimator) putEnv(v *env) {
	v.sc.Trim()
	v.sess.Trim()
	e.envMu.Lock()
	if len(e.freeEnvs) < maxFreeEnvs {
		e.freeEnvs = append(e.freeEnvs, v)
		e.envMu.Unlock()
		return
	}
	e.envMu.Unlock()
	v.sess.Close()
}

// claimSlot tries to take exclusive ownership of slot i for a batch.
// nil means another batch holds it — the caller proceeds without that
// slot's L1 (the shared L2 below still absorbs repeats). gen is the
// claiming batch's pinned Snapshot.gen: on a claim, the L1 is cleared
// if its contents were computed against any other generation (a DB
// swap or ObserveUnits pass retired them — or, after a swap raced this
// batch's pin, the slot ran ahead on the newer snapshot; either way
// mixed-generation contents are never served).
func (e *Estimator) claimSlot(i int, gen uint64) *slot {
	sl := &e.slots[i]
	if !sl.mu.TryLock() {
		return nil
	}
	if sl.gen != gen {
		if sl.l1 != nil {
			clear(sl.l1)
			sl.resident.Store(0)
		}
		sl.gen = gen
	}
	return sl
}

// flushWorker performs the batched stats flush: one striped Add per
// counter per worker per batch, then returns the environment.
func (e *Estimator) flushWorker(w *worker, stripe int) {
	if w.phrases != 0 {
		e.phrasesDone.Add(stripe, w.phrases)
	}
	if w.l1Hits != 0 {
		e.l1Hits.Add(stripe, w.l1Hits)
	}
	e.flushes.Add(stripe, 1)
	e.putEnv(w.env)
}

// estimateSlot estimates one phrase on a worker, consulting (and
// populating) the owned slot's L1 when sl is non-nil; slots exist only
// on caching estimators. The L1 maps raw phrases to the phrase cache's
// immutable records; keys are cloned because callers (the serving
// layer) may reuse the phrase's backing bytes.
func (e *Estimator) estimateSlot(v view, phrase string, w *worker, sl *slot) IngredientResult {
	w.phrases++
	if sl != nil {
		if ent, ok := sl.l1[phrase]; ok {
			w.l1Hits++
			e.phraseCache.TouchHash(ent.l2h)
			return ent.rec.result(phrase)
		}
	}
	r, rec, l2h := e.estimateCached(v, phrase, w.env.sc, w.env.sess)
	if sl != nil && rec != nil && len(phrase) <= maxCachedKey {
		if sl.l1 == nil {
			sl.l1 = make(map[string]l1Entry, min(e.l1Cap, 64))
		} else if len(sl.l1) >= e.l1Cap {
			clear(sl.l1)
		}
		sl.l1[strings.Clone(phrase)] = l1Entry{rec: rec, l2h: l2h}
		sl.resident.Store(int64(len(sl.l1)))
	}
	return r
}

// estimateShardedCtx is the phrase-hash-partitioned worker pool: worker
// w of W owns slots {s : s ≡ w (mod W)} and estimates exactly the
// phrases that hash into them. Dispatch is deterministic — no shared
// claim counter — and every phrase's slot is decided by its bytes, so
// repeats serialize onto their owner and hit its L1 without any
// cross-worker traffic. Output is input-ordered (each worker writes
// only its own indices of out).
//
// Load balance comes from the hash: with hundreds of phrases per batch
// the per-worker share concentrates tightly, and repeat-heavy skew is
// self-correcting (repeats are L1 hits, orders of magnitude cheaper
// than first contact).
func (e *Estimator) estimateShardedCtx(ctx context.Context, v view, phrases []string, workers int, out []IngredientResult) error {
	done := ctx.Done()
	var wg sync.WaitGroup
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func(wk int) {
			defer wg.Done()
			w := worker{env: e.getEnv(v.snap)}
			var claimed [numSlots]*slot
			for s := wk; s < numSlots; s += workers {
				claimed[s] = e.claimSlot(s, v.snap.gen)
			}
			defer func() {
				for s := wk; s < numSlots; s += workers {
					if claimed[s] != nil {
						claimed[s].mu.Unlock()
					}
				}
				e.flushWorker(&w, wk%statStripes)
			}()
			for i, p := range phrases {
				s := slotIndex(p)
				if s%workers != wk {
					continue
				}
				select {
				case <-done:
					return
				default:
				}
				out[i] = e.estimateSlot(v, p, &w, claimed[s])
			}
		}(wk)
	}
	wg.Wait()
	return ctx.Err()
}
