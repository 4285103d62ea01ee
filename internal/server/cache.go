package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/wasm"
)

// cacheKey identifies one prediction: the content hash of the model that
// produced it, the content hash of a function, the element ("param3",
// "return"), and the beam width. Keying by function *content* rather than
// (binary, index) means identical functions shared across object files —
// common per the paper's dedup analysis, where statically linked library
// code repeats across packages — hit the same entry regardless of which
// upload they arrive in. The model fingerprint namespaces the shared
// cache across the registry's models and across hot swaps: entries from
// an old model version simply stop being hit and age out, and a restarted
// (or replica) process loading the persisted cache only answers from
// entries its exact model wrote.
type cacheKey struct {
	model [32]byte
	fn    [32]byte
	elem  string
	k     int
	// engine separates the precision tiers' entries, which share the
	// model's fingerprint: "" is the model's primary engine, "f32" the
	// f32 engine of an f64 model. Each tier's kernels may rank types
	// differently, so a request must never be answered from another
	// tier's entry.
	engine string
}

// funcHash fingerprints a module-defined function's prediction-relevant
// content: its low-level signature, locals, and instruction stream.
func funcHash(m *wasm.Module, funcIdx int) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	fn := &m.Funcs[funcIdx]
	// Always hash the type index itself plus a validity marker: two
	// tolerant-decoded functions with different out-of-range type indices
	// but identical bodies must not share an entry, and an out-of-range
	// function must not collide with an in-range one whose signature
	// happens to hash to nothing.
	put(uint64(fn.TypeIdx))
	if int(fn.TypeIdx) < len(m.Types) {
		put(1)
		sig := m.Types[fn.TypeIdx]
		put(uint64(len(sig.Params)))
		for _, p := range sig.Params {
			put(uint64(p))
		}
		put(uint64(len(sig.Results)))
		for _, r := range sig.Results {
			put(uint64(r))
		}
	} else {
		put(0)
	}
	put(uint64(len(fn.Locals)))
	for _, d := range fn.Locals {
		put(uint64(d.Count))
		put(uint64(d.Type))
	}
	put(uint64(len(fn.Body)))
	for _, in := range fn.Body {
		put(uint64(in.Op))
		put(uint64(in.Imm))
		put(uint64(in.Imm2))
		put(uint64(math.Float32bits(in.F32)))
		put(math.Float64bits(in.F64))
		put(uint64(len(in.Table)))
		for _, tgt := range in.Table {
			put(uint64(tgt))
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// lruCache is a fixed-capacity LRU map from prediction keys to ranked
// predictions. Safe for concurrent use. A nil *lruCache disables caching
// (every lookup misses, every store is dropped).
type lruCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[cacheKey]*list.Element
}

type lruEntry struct {
	key cacheKey
	val []core.TypePrediction
}

// newLRUCache returns a cache holding at most max entries; max <= 0
// returns nil (caching disabled).
func newLRUCache(max int) *lruCache {
	if max <= 0 {
		return nil
	}
	return &lruCache{max: max, order: list.New(), items: map[cacheKey]*list.Element{}}
}

func (c *lruCache) get(key cacheKey) ([]core.TypePrediction, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(key cacheKey, val []core.TypePrediction) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for len(c.items) > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// retain drops every entry keep rejects; the survivors keep their
// recency order.
func (c *lruCache) retain(keep func(cacheKey) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if key := el.Value.(*lruEntry).key; !keep(key) {
			c.order.Remove(el)
			delete(c.items, key)
		}
		el = next
	}
}

// entries returns a copy of the cache contents, least recently used
// first — the order a snapshot must replay puts in so the restored cache
// reproduces this one's eviction order exactly.
func (c *lruCache) entries() []lruEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]lruEntry, 0, len(c.items))
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry)
		out = append(out, lruEntry{key: e.key, val: e.val})
	}
	return out
}
