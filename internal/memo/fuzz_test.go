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
// reconcile exactly with the op counts. Every reference
// GetBytesHashRef hands out is re-read after every later op and must
// still hold the value it was handed out with.
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

	var lookups, puts uint64
	for i, op := range ops {
		key := keyOf(op & 0x0f)
		val := uint16(i)
		switch op >> 4 {
		case 1: // put
			notePut(key)
			lastVal[key] = val
			putSincePurge[key] = true
			c.Put(key, val)
			puts++
		case 3: // purge
			putSincePurge = map[string]bool{}
			referenced = map[string]bool{}
			c.Purge()
		case 4: // gen-checked put racing a purge
			gen := c.Gen()
			c.Purge()
			putSincePurge = map[string]bool{}
			referenced = map[string]bool{}
			c.PutHashGen(HashString(key), key, val, gen)
			// The stale store must drop; the model records nothing.
		case 5: // byte-spelling lookup
			lookups++
			if v, ok := c.GetBytes([]byte(key)); ok {
				if !putSincePurge[key] {
					t.Fatalf("%v: GetBytes(%q) hit resurrected a purged entry", p, key)
				}
				if want := lastVal[key]; v != want {
					t.Fatalf("%v: GetBytes(%q) = %d, want last-put %d", p, key, v, want)
				}
			}
		case 6: // put, then take a reference to it (a miss, then a hit)
			notePut(key)
			c.PutHashGen(HashString(key), key, val, c.Gen())
			lastVal[key] = val
			putSincePurge[key] = true
			puts++
			lookups++
			r := c.GetBytesHashRef(HashString(key), []byte(key))
			if r == nil {
				t.Fatalf("%v: %q missed right after its put at the current generation", p, key)
			}
			noteRef(key, r, val)
		case 7: // lookup keeping a reference
			lookups++
			if r := c.GetBytesHashRef(Hash([]byte(key)), []byte(key)); r != nil {
				if !putSincePurge[key] {
					t.Fatalf("%v: GetBytesHashRef(%q) hit resurrected a purged entry", p, key)
				}
				if want := lastVal[key]; *r != want {
					t.Fatalf("%v: GetBytesHashRef(%q) = %d, want last-put %d", p, key, *r, want)
				}
				noteRef(key, r, *r)
			}
		default: // lookup (the dominant op: 9 of 16 opcodes)
			lookups++
			if v, ok := c.Get(key); ok {
				if !putSincePurge[key] {
					t.Fatalf("%v: Get(%q) hit resurrected a purged entry", p, key)
				}
				if want := lastVal[key]; v != want {
					t.Fatalf("%v: Get(%q) = %d, want last-put %d", p, key, v, want)
				}
			}
		}
		if c.Len() > c.Capacity() {
			t.Fatalf("%v: Len %d exceeds Capacity %d after op %d", p, c.Len(), c.Capacity(), i)
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
	if p == PolicyLRU && (st.Rejections != 0 || st.Admissions != 0) {
		t.Fatalf("%v: admission counters moved under LRU: %+v", p, st)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("%v: entries %d exceed capacity %d", p, st.Entries, st.Capacity)
	}
	verifyShardStructureF(t, c, p)
	run.stats = st
	return run
}

// verifyShardStructureF is verifyShardStructure for fatal fuzz use —
// list/map/segment bookkeeping must reconcile after every op stream.
func verifyShardStructureF(t *testing.T, c *Cache[uint16], p Policy) {
	for i := range c.shards {
		s := &c.shards[i]
		wn := 0
		for e := s.whead; e != nil; e = e.next {
			wn++
		}
		mn := 0
		for e := s.head; e != nil; e = e.next {
			mn++
		}
		if wn+mn != len(s.m) {
			t.Fatalf("%v: shard %d lists hold %d entries, map %d", p, i, wn+mn, len(s.m))
		}
		if p == PolicyTinyLFU && (wn != s.windowLen || mn != s.mainLen) {
			t.Fatalf("%v: shard %d lengths %d/%d disagree with windowLen=%d mainLen=%d",
				p, i, wn, mn, s.windowLen, s.mainLen)
		}
	}
}
