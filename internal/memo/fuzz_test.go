package memo

import (
	"fmt"
	"testing"
)

// FuzzMemoAdmission model-checks the cache against a reference map
// under byte-stream-decoded op sequences, for both policies. The
// reference tracks the last value Put for each key and whether it was
// stored since the last Purge; the cache may evict or reject whatever
// admission decides, but it must never fabricate, corrupt, or
// resurrect a value, never exceed capacity, and its counters must
// reconcile exactly with the op counts. Every put has one of two
// exact outcomes: the key is resident with the value put, or — only
// under TinyLFU, for an absent key — the store adds exactly one
// rejection and nothing else. Every reference GetBytesHashRef hands
// out is re-read after every later op and must still hold the value
// it was handed out with.
func FuzzMemoAdmission(f *testing.F) {
	f.Add([]byte{2, 4, 0x00, 0x10, 0x21, 0x12, 0x30, 0x41})
	f.Add([]byte{0, 1, 0x10, 0x00, 0x10, 0x00, 0x10, 0x00})
	f.Add([]byte{15, 2, 0x1f, 0x2f, 0x3f, 0x0f, 0x1e, 0x2e, 0x3e, 0x0e})
	f.Add([]byte{7, 8, 0x10, 0x11, 0x12, 0x13, 0x30, 0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + int(data[0]%24)
		shards := 1 << (data[1] % 3)
		ops := data[2:]
		for _, p := range []Policy{PolicyLRU, PolicyTinyLFU} {
			checkModel(t, p, capacity, shards, ops)
		}
	})
}

// modelRun summarizes one checkModel op stream, so seeded tests can
// assert which events their streams reached.
type modelRun struct {
	stats Stats
	// refRefreshes counts puts to a key some reference was handed out
	// for since its last put: the refreshes that must swap entries.
	refRefreshes int
	refs         int // references handed out
	refused      int // puts admission refused (TinyLFU only)
}

func checkModel(t *testing.T, p Policy, capacity, shards int, ops []byte) modelRun {
	c := NewPolicy[uint16](capacity, shards, p)

	// Reference model: last value stored per key, and whether the key
	// has been Put since the most recent Purge (a hit on a key without
	// a post-purge Put is a resurrection).
	lastVal := map[string]uint16{}
	putSincePurge := map[string]bool{}
	keyOf := func(b byte) string { return fmt.Sprintf("k%02d", b%48) }

	// Every reference handed out, with the value it must keep reading
	// through later refreshes, evictions, rejections and purges.
	type heldRef struct {
		key  string
		ref  *uint16
		want uint16
	}
	var held []heldRef
	// checkHit checks a lookup's hit against the model: no
	// resurrection past a Purge, and the last value put.
	checkHit := func(via, key string, v uint16) {
		if !putSincePurge[key] {
			t.Fatalf("%v: %s(%q) hit resurrected a purged entry", p, via, key)
		}
		if want := lastVal[key]; v != want {
			t.Fatalf("%v: %s(%q) = %d, want last-put %d", p, via, key, v, want)
		}
	}
	referenced := map[string]bool{} // a reference is out since the key's last put
	var run modelRun
	noteRef := func(key string, r *uint16, want uint16) {
		held = append(held, heldRef{key, r, want})
		referenced[key] = true
		run.refs++
	}
	notePut := func(key string) {
		if referenced[key] {
			run.refRefreshes++
			referenced[key] = false
		}
	}

	// put stores key at the current generation and checks the store's
	// exact outcome against the counters, reporting whether the key is
	// now resident.
	put := func(key string, val uint16) bool {
		notePut(key)
		lastVal[key] = val
		putSincePurge[key] = true
		h := hashString(key)
		s := &c.shards[shardIndex(c, h)]
		_, was := s.m[key]
		before := c.Stats()
		c.PutHashGen(h, []byte(key), val, c.Gen())
		after := c.Stats()
		e, landed := s.m[key]
		switch {
		case landed && e.val != val:
			t.Fatalf("%v: put(%q, %d) left value %d", p, key, val, e.val)
		case landed && was && (after.Entries != before.Entries || after.Evictions != before.Evictions ||
			after.Rejections != before.Rejections):
			t.Fatalf("%v: refreshing resident %q moved counters: %+v -> %+v", p, key, before, after)
		case landed && !was && uint64(after.Entries)+after.Evictions+after.Rejections !=
			uint64(before.Entries)+before.Evictions+before.Rejections+1:
			t.Fatalf("%v: inserting %q is not exactly one of entry, eviction, rejection: %+v -> %+v",
				p, key, before, after)
		case !landed && (p != PolicyTinyLFU || was):
			t.Fatalf("%v: put(%q) did not land (resident before: %v)", p, key, was)
		case !landed && (after.Rejections != before.Rejections+1 || after.Entries != before.Entries ||
			after.Evictions != before.Evictions):
			t.Fatalf("%v: refused put(%q) is not exactly one rejection: %+v -> %+v", p, key, before, after)
		}
		if !landed {
			run.refused++
		}
		return landed
	}

	var lookups uint64
	for i, op := range ops {
		key := keyOf(op & 0x0f)
		val := uint16(i)
		switch op >> 4 {
		case 1: // put
			put(key, val)
		case 3: // purge
			putSincePurge = map[string]bool{}
			referenced = map[string]bool{}
			c.Purge()
		case 4: // gen-checked put racing a purge
			before := c.Stats()
			gen := c.Gen()
			c.Purge()
			putSincePurge = map[string]bool{}
			referenced = map[string]bool{}
			c.PutHashGen(hashString(key), []byte(key), val, gen)
			// The stale store must drop, not even counted as a
			// rejection; the model records nothing.
			if st := c.Stats(); st.Entries != 0 || st.Rejections != before.Rejections {
				t.Fatalf("%v: stale-generation put of %q left %d entries, rejections %d -> %d",
					p, key, st.Entries, before.Rejections, st.Rejections)
			}
		case 5: // byte-spelling lookup
			lookups++
			if v, ok := getBytes(c, []byte(key)); ok {
				checkHit("getBytes", key, v)
			}
		case 6: // the estimator's miss path: a lookup, a store, a reference
			lookups++
			if v, ok := get(c, key); ok {
				checkHit("get", key, v)
			}
			landed := put(key, val)
			lookups++
			r := c.GetBytesHashRef(hashString(key), []byte(key))
			if landed != (r != nil) {
				t.Fatalf("%v: %q resolves to a reference: %v, after a put that landed: %v", p, key, r != nil, landed)
			}
			if r != nil {
				noteRef(key, r, val)
			}
		case 7: // lookup keeping a reference
			lookups++
			if r := c.GetBytesHashRef(Hash([]byte(key)), []byte(key)); r != nil {
				checkHit("GetBytesHashRef", key, *r)
				noteRef(key, r, *r)
			}
		default: // lookup (the dominant op: 9 of 16 opcodes)
			lookups++
			if v, ok := get(c, key); ok {
				checkHit("get", key, v)
			}
		}
		if length(c) > capacityOf(c) {
			t.Fatalf("%v: Len %d exceeds Capacity %d after op %d", p, length(c), capacityOf(c), i)
		}
		for _, h := range held {
			if *h.ref != h.want {
				t.Fatalf("%v: reference for %q reads %d after op %d, want %d as handed out",
					p, h.key, *h.ref, i, h.want)
			}
		}
	}

	st := c.Stats()
	if st.Hits+st.Misses != lookups {
		t.Fatalf("%v: hits(%d)+misses(%d) != %d lookups", p, st.Hits, st.Misses, lookups)
	}
	if p == PolicyLRU && st.Rejections != 0 {
		t.Fatalf("%v: admission counters moved under LRU: %+v", p, st)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("%v: entries %d exceed capacity %d", p, st.Entries, st.Capacity)
	}
	verifyShardStructure(t, c)
	run.stats = st
	return run
}
