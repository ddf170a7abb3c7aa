package engine

import (
	"bytes"
	"fmt"
	"testing"
)

func TestBlockCacheCountersSurface(t *testing.T) {
	e, err := Open(Options{MemtableBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("cache-%05d", i)) }
	for i := 0; i < 500; i++ {
		e.Put(key(i), bytes.Repeat([]byte("x"), 64))
	}
	// Re-read a hot subset: the first pass misses, later passes hit.
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 50; i++ {
			e.Get(key(i))
		}
	}
	st := e.Stats()
	if st.BlockCacheMisses == 0 {
		t.Fatal("expected block-cache misses on first touch")
	}
	if st.BlockCacheHits == 0 {
		t.Fatal("expected block-cache hits on re-read")
	}
	// Disabled cache reports nothing.
	off, err := Open(Options{MemtableBytes: 1 << 10, BlockCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	for i := 0; i < 500; i++ {
		off.Put(key(i), bytes.Repeat([]byte("x"), 64))
	}
	for i := 0; i < 50; i++ {
		off.Get(key(i))
	}
	if st := off.Stats(); st.BlockCacheHits != 0 || st.BlockCacheMisses != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
}
