package bpe

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// encodeUncached is Encode without the word memo: the concatenated
// EncodeWord results.
func encodeUncached(m *Model, tokens []string) []string {
	var out []string
	for _, t := range tokens {
		out = append(out, m.EncodeWord(t)...)
	}
	return out
}

// memoTestModel learns a model from the fuzz seed corpora and returns it
// with their tokens plus random words over the same alphabet, some of
// them longer than the memo's word bound.
func memoTestModel() (*Model, []string) {
	var tokens []string
	freq := map[string]int{}
	for _, c := range fuzzSeedCorpora {
		for _, tok := range strings.Fields(c) {
			tokens = append(tokens, tok)
			freq[tok]++
		}
	}
	m := Learn(freq, 120)
	r := rand.New(rand.NewSource(5))
	const alphabet = "abcdil._0123456789=漢字"
	runes := []rune(alphabet)
	for i := 0; i < 300; i++ {
		var b strings.Builder
		for n := 1 + r.Intn(12) + r.Intn(2)*r.Intn(80); n > 0; n-- {
			b.WriteRune(runes[r.Intn(len(runes))])
		}
		tokens = append(tokens, b.String())
	}
	return m, tokens
}

// TestEncodeMemoMatchesUncached: Encode through the word memo — cold,
// then warm — equals plain EncodeWord concatenation on the fuzz seeds and
// on random words, and a caller writing into its result does not reach
// the memo.
func TestEncodeMemoMatchesUncached(t *testing.T) {
	m, tokens := memoTestModel()
	want := encodeUncached(m, tokens)
	for pass := 0; pass < 2; pass++ {
		got := m.Encode(tokens)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: memoized Encode differs from EncodeWord", pass)
		}
		for i := range got {
			got[i] = "clobbered"
		}
	}
	for _, tok := range tokens {
		got := m.Encode([]string{tok})
		if w := m.EncodeWord(tok); !reflect.DeepEqual(got, w) {
			t.Fatalf("Encode(%q) = %q, EncodeWord %q", tok, got, w)
		}
	}
}

// TestEncodeMemoConcurrent: goroutines sharing one model — as ingest
// workers and server batchers share it — encode overlapping streams
// while the memo fills; each gets the uncached encoding (run with -race).
func TestEncodeMemoConcurrent(t *testing.T) {
	m, tokens := memoTestModel()
	want := encodeUncached(m, tokens)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				// Start at a different token per goroutine so fills race.
				off := (g * 37) % len(tokens)
				rot := append(append([]string(nil), tokens[off:]...), tokens[:off]...)
				wantRot := encodeUncached(m, rot)
				if got := m.Encode(rot); !reflect.DeepEqual(got, wantRot) {
					t.Errorf("goroutine %d: concurrent Encode differs from EncodeWord", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.Encode(tokens); !reflect.DeepEqual(got, want) {
		t.Error("Encode after concurrent fills differs from EncodeWord")
	}
}

// TestEncodeMemoBounded: the memo never holds more than memoWords words
// nor any word longer than memoWordBytes, however many distinct words
// arrive, and words past the bound still encode correctly.
func TestEncodeMemoBounded(t *testing.T) {
	m, _ := memoTestModel()
	words := make([]string, memoWords+500)
	for i := range words {
		words[i] = fmt.Sprintf("i32.const_%d", i)
	}
	long := strings.Repeat("a", memoWordBytes+1)
	words = append(words, long)
	if got, want := m.Encode(words), encodeUncached(m, words); !reflect.DeepEqual(got, want) {
		t.Fatal("Encode past the memo bound differs from EncodeWord")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.memo) != memoWords {
		t.Errorf("memo holds %d words, want exactly the bound %d", len(m.memo), memoWords)
	}
	for w := range m.memo {
		if len(w) > memoWordBytes {
			t.Errorf("memo holds a %d-byte word, bound %d", len(w), memoWordBytes)
		}
	}
}
