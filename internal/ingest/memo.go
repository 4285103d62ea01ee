package ingest

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/core"
)

// memoEntries bounds Dir's prediction memo. An entry is a 32-byte key
// and one element's k ranked predictions: per prediction a fixed header,
// at most the model's MaxTgtLen token slots (the strings are its
// vocabulary's) and the joined text. On the benchmark's ingest corpus an
// entry takes ~750 B at k = 5, so a full memo holds ~3 MiB; the bound
// grows linearly with k. Once full the memo stops growing: later
// distinct inputs decode as if uncached.
const memoEntries = 4096

// Model roles in a memo key: the parameter and the return model decode
// the same input differently.
const (
	roleParam  = 'p'
	roleReturn = 'r'
)

// predMemo is Dir's per-run prediction memo, shared by its workers: the
// decoded predictions of each (model role, k, input token sequence)
// already seen in the run. Real corpora repeat code — statically linked
// library functions, re-shipped files — and a repeat needs no second
// decode, because a search's result depends only on its own input, not
// on the queries sharing its batch (exact f64 by row-independent
// arithmetic, f32 by its batch-invariance contract). Two workers that
// miss the same input at once may both decode it; their answers are
// bitwise equal. Values are shared between reports and never modified.
//
// The memo lives for one Dir call: a crawl is one run, and a memo that
// outlived it would turn repeated runs over one directory into cache
// reads.
type predMemo struct {
	mu sync.Mutex
	m  map[[32]byte][]core.TypePrediction
}

func newPredMemo() *predMemo {
	return &predMemo{m: make(map[[32]byte][]core.TypePrediction)}
}

func (pm *predMemo) get(key [32]byte) ([]core.TypePrediction, bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	p, ok := pm.m[key]
	return p, ok
}

func (pm *predMemo) put(key [32]byte, preds []core.TypePrediction) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if len(pm.m) < memoEntries {
		pm.m[key] = preds
	}
}

// memoKey fingerprints one query: the SHA-256 of its model role, its k
// and its length-prefixed input tokens, so no two distinct token
// sequences share a preimage.
func memoKey(role byte, k int, src []string) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte{role})
	put(uint64(k))
	put(uint64(len(src)))
	for _, tok := range src {
		put(uint64(len(tok)))
		h.Write([]byte(tok))
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}
