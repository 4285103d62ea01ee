package server

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/wasm"
)

func key(b byte, elem string, k int) cacheKey {
	return cacheKey{fn: [32]byte{b}, elem: elem, k: k}
}

func preds(text string) []core.TypePrediction {
	return []core.TypePrediction{{Tokens: []string{text}, Text: text}}
}

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2)
	c.put(key(1, "param0", 5), preds("a"))
	c.put(key(2, "param0", 5), preds("b"))
	c.get(key(1, "param0", 5)) // touch 1 → 2 becomes LRU
	c.put(key(3, "param0", 5), preds("c"))
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get(key(2, "param0", 5)); ok {
		t.Error("least recently used entry survived eviction")
	}
	if v, ok := c.get(key(1, "param0", 5)); !ok || v[0].Text != "a" {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.get(key(3, "param0", 5)); !ok {
		t.Error("new entry missing")
	}
}

func TestLRUKeyGranularity(t *testing.T) {
	c := newLRUCache(10)
	c.put(key(1, "param0", 5), preds("a"))
	if _, ok := c.get(key(1, "param0", 3)); ok {
		t.Error("k not part of the key")
	}
	if _, ok := c.get(key(1, "param1", 5)); ok {
		t.Error("element not part of the key")
	}
	if _, ok := c.get(key(2, "param0", 5)); ok {
		t.Error("function hash not part of the key")
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := newLRUCache(2)
	c.put(key(1, "return", 5), preds("old"))
	c.put(key(1, "return", 5), preds("new"))
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
	if v, _ := c.get(key(1, "return", 5)); v[0].Text != "new" {
		t.Errorf("value = %q, want new", v[0].Text)
	}
}

func TestLRUNilDisabled(t *testing.T) {
	var c *lruCache
	c.put(key(1, "param0", 5), preds("a"))
	if _, ok := c.get(key(1, "param0", 5)); ok {
		t.Error("nil cache returned a hit")
	}
	if c.len() != 0 {
		t.Error("nil cache has entries")
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := newLRUCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(byte(i%64), "param0", g%3)
				c.put(k, preds(fmt.Sprint(i)))
				c.get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 32 {
		t.Errorf("len = %d exceeds capacity", c.len())
	}
}

// TestLRUEntriesOrder checks the snapshot enumeration is exactly LRU →
// MRU, tracking both inserts and get-touches: replaying it through put
// must rebuild an identical cache.
func TestLRUEntriesOrder(t *testing.T) {
	c := newLRUCache(4)
	c.put(key(1, "param0", 5), preds("a"))
	c.put(key(2, "param0", 5), preds("b"))
	c.put(key(3, "param0", 5), preds("c"))
	c.get(key(1, "param0", 5)) // 1 becomes MRU: order is now 2, 3, 1
	got := c.entries()
	wantOrder := []byte{2, 3, 1}
	if len(got) != len(wantOrder) {
		t.Fatalf("entries = %d, want %d", len(got), len(wantOrder))
	}
	for i, want := range wantOrder {
		if got[i].key.fn != [32]byte{want} {
			t.Errorf("entries[%d] = fn[%d], want fn[%d]", i, got[i].key.fn[0], want)
		}
	}
	// Replaying entries through put must preserve eviction order: one more
	// put evicts 2 (the replayed LRU), not 1.
	c2 := newLRUCache(4)
	for _, e := range got {
		c2.put(e.key, e.val)
	}
	c2.put(key(4, "param0", 5), preds("d"))
	c2.put(key(5, "param0", 5), preds("e"))
	if _, ok := c2.get(key(2, "param0", 5)); ok {
		t.Error("replayed LRU entry survived eviction")
	}
	if _, ok := c2.get(key(1, "param0", 5)); !ok {
		t.Error("replayed MRU entry was evicted")
	}
	var nc *lruCache
	if nc.entries() != nil {
		t.Error("nil cache entries() must be nil")
	}
}

// TestFuncHashOutOfRangeTypeIdx covers the tolerant-decode edge: two
// functions with identical bodies but different out-of-range type
// indices must not collide (the signature hash used to be skipped
// entirely for them), and an out-of-range function must differ from an
// in-range one with the same body.
func TestFuncHashOutOfRangeTypeIdx(t *testing.T) {
	m := &wasm.Module{
		Types: []wasm.FuncType{{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}}},
		Funcs: []wasm.Function{
			{TypeIdx: 7}, // out of range (1 type defined)
			{TypeIdx: 9}, // out of range, different index, same (empty) body
			{TypeIdx: 0}, // in range, same body
			{TypeIdx: 7}, // identical to func 0: must hash equal
		},
	}
	if funcHash(m, 0) == funcHash(m, 1) {
		t.Error("different out-of-range type indices with identical bodies collide")
	}
	if funcHash(m, 0) == funcHash(m, 2) {
		t.Error("out-of-range function collides with in-range function")
	}
	if funcHash(m, 0) != funcHash(m, 3) {
		t.Error("identical out-of-range functions hash differently")
	}
}

// TestFuncHashContent checks the hash tracks function content, not
// position: identical bodies hash equal, different bodies differ.
func TestFuncHashContent(t *testing.T) {
	obj, err := cc.Compile(`
int same_a(int x) { return x + 1; }
int same_b(int x) { return x + 1; }
int other(int x) { return x * 3; }
`, cc.Options{Debug: false})
	if err != nil {
		t.Fatal(err)
	}
	m := obj.Module
	if len(m.Funcs) < 3 {
		t.Fatalf("only %d functions", len(m.Funcs))
	}
	if funcHash(m, 0) != funcHash(m, 1) {
		t.Error("identical function bodies hash differently")
	}
	if funcHash(m, 0) == funcHash(m, 2) {
		t.Error("different function bodies hash equal")
	}
	// Equality must also hold across separately decoded modules (the
	// cross-upload dedup case).
	bin, _, err := wasm.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := ingest.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	if funcHash(m, 0) != funcHash(ld.Decoded.Module, 0) {
		t.Error("hash differs across decode round trip")
	}
}
