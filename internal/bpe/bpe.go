// Package bpe implements byte-pair-encoding subword tokenization
// (Sennrich et al., ACL 2016), standing in for SentencePiece in the
// paper's pipeline (Section 4.1): the raw WebAssembly token vocabulary is
// dominated by a long tail of numbers (memory offsets, constants), so
// infrequent tokens are broken into subwords drawn from a small learned
// vocabulary, trading slightly longer sequences for a much smaller
// embedding matrix.
package bpe

import (
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

// endOfWord marks word-final symbols so decoding can restore token
// boundaries.
const endOfWord = "</w>"

// Word memo bounds. Encode memoizes each word's subwords: instruction
// tokens repeat (one of the benchmark's 100-binary ingest corpora has
// 143 distinct words in 133,051 tokens), and EncodeWord's merge loop
// costs far more than a map lookup. Server inputs are untrusted, so the
// memo holds at most memoWords words of at most memoWordBytes bytes
// each — longer words are encoded every time — and once full it stops
// growing. An entry is its key plus at most one symbol per byte and the
// symbols' text, under 1.3 KiB, so a full memo holds at most ~5 MiB;
// real entries are one or two symbols, ~150 B.
const (
	memoWords     = 4096
	memoWordBytes = 64
)

// Model is a learned subword model. Its methods are safe for concurrent
// use.
type Model struct {
	merges [][2]string
	rank   map[[2]string]int
	vocab  map[string]bool

	// memo caches EncodeWord results by word, guarded by mu; entries are
	// never modified or handed out (Encode copies from them).
	mu   sync.Mutex
	memo map[string][]string
}

// Learn builds a subword model from word frequencies. vocabSize bounds the
// number of distinct output symbols; learning stops when the vocabulary is
// full or no pair occurs at least twice.
func Learn(wordFreq map[string]int, vocabSize int) *Model {
	// Represent each word as its symbol sequence, final symbol marked.
	type entry struct {
		syms []string
		n    int
	}
	entries := make([]entry, 0, len(wordFreq))
	// Deterministic iteration order.
	words := make([]string, 0, len(wordFreq))
	for w := range wordFreq {
		if w != "" {
			words = append(words, w)
		}
	}
	sort.Strings(words)
	vocab := map[string]bool{}
	for _, w := range words {
		syms := split(w)
		for _, s := range syms {
			vocab[s] = true
		}
		entries = append(entries, entry{syms: syms, n: wordFreq[w]})
	}

	m := &Model{rank: map[[2]string]int{}, vocab: vocab}
	for len(m.vocab) < vocabSize {
		// Count adjacent pairs.
		pairs := map[[2]string]int{}
		for _, e := range entries {
			for i := 0; i+1 < len(e.syms); i++ {
				pairs[[2]string{e.syms[i], e.syms[i+1]}] += e.n
			}
		}
		best, bestN := [2]string{}, 1
		// Deterministic tie-break: highest count, then lexicographic.
		keys := make([][2]string, 0, len(pairs))
		for p := range pairs {
			keys = append(keys, p)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, p := range keys {
			if pairs[p] > bestN {
				best, bestN = p, pairs[p]
			}
		}
		if bestN < 2 {
			break
		}
		merged := best[0] + best[1]
		m.rank[best] = len(m.merges)
		m.merges = append(m.merges, best)
		m.vocab[merged] = true
		for i := range entries {
			entries[i].syms = applyMerge(entries[i].syms, best, merged)
		}
	}
	return m
}

// split breaks a word into initial symbols (runes, last one marked).
// Symbols are sliced from the word rather than re-encoded so that bytes
// that are not valid UTF-8 survive a round trip instead of collapsing
// to U+FFFD.
func split(w string) []string {
	var syms []string
	for i := 0; i < len(w); {
		_, size := utf8.DecodeRuneInString(w[i:])
		syms = append(syms, w[i:i+size])
		i += size
	}
	syms[len(syms)-1] += endOfWord
	return syms
}

func applyMerge(syms []string, pair [2]string, merged string) []string {
	out := syms[:0]
	for i := 0; i < len(syms); i++ {
		if i+1 < len(syms) && syms[i] == pair[0] && syms[i+1] == pair[1] {
			out = append(out, merged)
			i++
		} else {
			out = append(out, syms[i])
		}
	}
	return out
}

// EncodeWord splits one token into learned subword symbols.
func (m *Model) EncodeWord(w string) []string {
	if w == "" {
		return nil
	}
	syms := split(w)
	// Greedily apply merges in learned order until none applies.
	for {
		bestRank, bestIdx := -1, -1
		for i := 0; i+1 < len(syms); i++ {
			if r, ok := m.rank[[2]string{syms[i], syms[i+1]}]; ok && (bestRank < 0 || r < bestRank) {
				bestRank, bestIdx = r, i
			}
		}
		if bestIdx < 0 {
			return syms
		}
		merged := syms[bestIdx] + syms[bestIdx+1]
		syms = append(syms[:bestIdx], append([]string{merged}, syms[bestIdx+2:]...)...)
	}
}

// Encode splits a token sequence into subword symbols: the
// concatenated EncodeWord results, looked up in the model's word memo.
// The returned slice is the caller's; it never aliases the memo.
func (m *Model) Encode(tokens []string) []string {
	var out []string
	for _, t := range tokens {
		out = append(out, m.memoWord(t)...)
	}
	return out
}

// memoWord returns EncodeWord(w) through the word memo. The result may
// be a memo entry: callers copy from it and must not keep or modify it.
func (m *Model) memoWord(w string) []string {
	if len(w) > memoWordBytes {
		return m.EncodeWord(w)
	}
	m.mu.Lock()
	syms, ok := m.memo[w]
	m.mu.Unlock()
	if ok {
		return syms
	}
	// The symbols are slices of the word: clone it so an entry never
	// pins a caller's larger backing string.
	w = strings.Clone(w)
	syms = m.EncodeWord(w)
	m.mu.Lock()
	if m.memo == nil {
		m.memo = make(map[string][]string)
	}
	if len(m.memo) < memoWords {
		m.memo[w] = syms
	}
	m.mu.Unlock()
	return syms
}

// Decode reassembles subword symbols into the original token sequence.
// Symbols not ending in the end-of-word marker glue onto the next symbol.
func Decode(subtokens []string) []string {
	var out []string
	var cur strings.Builder
	for _, s := range subtokens {
		if trimmed, ok := strings.CutSuffix(s, endOfWord); ok {
			cur.WriteString(trimmed)
			out = append(out, cur.String())
			cur.Reset()
		} else {
			cur.WriteString(s)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// VocabSize returns the number of distinct symbols the model can emit.
func (m *Model) VocabSize() int { return len(m.vocab) }

// Vocab returns the sorted symbol vocabulary.
func (m *Model) Vocab() []string {
	out := make([]string, 0, len(m.vocab))
	for s := range m.vocab {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// NumMerges returns the number of learned merges.
func (m *Model) NumMerges() int { return len(m.merges) }
