package memo

import "testing"

func TestGenAdvancesOnPurge(t *testing.T) {
	c := newLRU[int](16)
	g0 := c.Gen()
	c.Purge()
	if g1 := c.Gen(); g1 != g0+1 {
		t.Fatalf("Gen after purge = %d, want %d", g1, g0+1)
	}
	c.Purge()
	c.Purge()
	if g3 := c.Gen(); g3 != g0+3 {
		t.Fatalf("Gen after three purges = %d, want %d", g3, g0+3)
	}
}

func TestPutHashGenStoresAtCurrentGen(t *testing.T) {
	c := newLRU[string](16)
	h := hashString("k")
	c.PutHashGen(h, []byte("k"), "v", c.Gen())
	if got, ok := getHash(c, h, []byte("k")); !ok || got != "v" {
		t.Fatalf("Get = %q,%v after current-gen put", got, ok)
	}
}

func TestPutHashGenDropsStaleStore(t *testing.T) {
	c := newLRU[string](16)
	h := hashString("k")
	stale := c.Gen()
	c.Purge() // the generation the caller pinned is retired
	c.PutHashGen(h, []byte("k"), "v", stale)
	if got, ok := getHash(c, h, []byte("k")); ok {
		t.Fatalf("stale-gen put landed: Get = %q", got)
	}
	// A fresh-gen put for the same key still works.
	c.PutHashGen(h, []byte("k"), "v2", c.Gen())
	if got, ok := getHash(c, h, []byte("k")); !ok || got != "v2" {
		t.Fatalf("Get = %q,%v after fresh-gen put", got, ok)
	}
}
