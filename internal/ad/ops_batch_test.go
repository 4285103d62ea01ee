package ad

import (
	"math/rand"
	"testing"
)

// TestGatherRowsMatchesRows pins GatherRows to Rows semantics: duplicate
// indices are allowed and backward scatter-adds into shared parents.
func TestGatherRowsMatchesRows(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	a := randV(r, 4, 3)
	idx := []int{2, 0, 2, 3}

	tape := NewTape()
	got := tape.GatherRows(a, idx)
	for i, id := range idx {
		for j := 0; j < a.C; j++ {
			if got.W[i*a.C+j] != a.W[id*a.C+j] {
				t.Fatalf("row %d col %d: got %v want %v", i, j, got.W[i*a.C+j], a.W[id*a.C+j])
			}
		}
	}
	for i := range got.G {
		got.G[i] = float64(i + 1)
	}
	tape.Backward()
	// Row 2 was gathered twice (output rows 0 and 2): its gradient is the
	// sum of both output rows' seeds.
	for j := 0; j < a.C; j++ {
		want := float64(0*a.C+j+1) + float64(2*a.C+j+1)
		if a.G[2*a.C+j] != want {
			t.Errorf("a.G[2,%d] = %v, want %v", j, a.G[2*a.C+j], want)
		}
	}
}

// TestGatherRowBlocks checks block gathering forward and backward: a
// [3*2, C] stack of three 2-row blocks, gathered with a repeated index.
func TestGatherRowBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	a := randV(r, 6, 2) // 3 blocks of 2 rows
	idx := []int{1, 1, 0}

	tape := NewTape()
	got := tape.GatherRowBlocks(a, idx, 2)
	if got.R != 6 || got.C != 2 {
		t.Fatalf("shape %dx%d, want 6x2", got.R, got.C)
	}
	for i, id := range idx {
		for k := 0; k < 2*a.C; k++ {
			if got.W[i*2*a.C+k] != a.W[id*2*a.C+k] {
				t.Fatalf("block %d elem %d: got %v want %v", i, k, got.W[i*2*a.C+k], a.W[id*2*a.C+k])
			}
		}
	}
	for i := range got.G {
		got.G[i] = 1
	}
	tape.Backward()
	for k := 0; k < 2*a.C; k++ {
		if a.G[1*2*a.C+k] != 2 { // block 1 tiled twice
			t.Errorf("a.G block 1 elem %d = %v, want 2", k, a.G[1*2*a.C+k])
		}
		if a.G[0*2*a.C+k] != 1 {
			t.Errorf("a.G block 0 elem %d = %v, want 1", k, a.G[0*2*a.C+k])
		}
	}

	// Pooled forward tape must produce the same values, including after
	// buffer reuse (recycled storage is re-zeroed).
	pool := NewPool()
	ftape := NewForward(pool)
	mark := ftape.Mark()
	first := ftape.GatherRowBlocks(a, idx, 2)
	if !equalW(first, got) {
		t.Errorf("pooled forward differs: %v vs %v", first.W, got.W)
	}
	ftape.ReleaseSince(mark)
	again := ftape.GatherRowBlocks(a, idx, 2)
	if !equalW(again, got) {
		t.Errorf("pool reuse corrupted gather: %v vs %v", again.W, got.W)
	}
}

// TestStackRowBlocks checks ragged packing: shorter inputs leave their
// block's tail rows exactly zero, even on a dirtied pool, and backward
// routes each block's gradient to its source.
func TestStackRowBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	tape := NewTape()
	a := randV(r, 3, 2)
	b := randV(r, 1, 2)
	out := tape.StackRowBlocks([]*V{a, b}, 3)
	if out.R != 6 || out.C != 2 {
		t.Fatalf("shape %dx%d, want 6x2", out.R, out.C)
	}
	for k := 0; k < len(a.W); k++ {
		if out.W[k] != a.W[k] {
			t.Fatalf("block 0 elem %d: got %v want %v", k, out.W[k], a.W[k])
		}
	}
	for k := 0; k < len(b.W); k++ {
		if out.W[3*2+k] != b.W[k] {
			t.Fatalf("block 1 elem %d: got %v want %v", k, out.W[3*2+k], b.W[k])
		}
	}
	for k := len(b.W); k < 3*2; k++ {
		if out.W[3*2+k] != 0 {
			t.Fatalf("padding row not zero at %d: %v", k, out.W[3*2+k])
		}
	}
	for i := range out.G {
		out.G[i] = float64(i + 1)
	}
	tape.Backward()
	for k := range a.G {
		if a.G[k] != float64(k+1) {
			t.Errorf("a.G[%d] = %v, want %v", k, a.G[k], float64(k+1))
		}
	}
	for k := range b.G {
		if b.G[k] != float64(3*2+k+1) {
			t.Errorf("b.G[%d] = %v, want %v", k, b.G[k], float64(3*2+k+1))
		}
	}

	// Dirty a pooled buffer of the same size, release it, and restack:
	// the padding rows must still come out zero.
	pool := NewPool()
	ftape := NewForward(pool)
	mark := ftape.Mark()
	dirty := ftape.new(6, 2)
	for i := range dirty.W {
		dirty.W[i] = 99
	}
	ftape.ReleaseSince(mark)
	restacked := ftape.StackRowBlocks([]*V{a, b}, 3)
	for k := len(b.W); k < 3*2; k++ {
		if restacked.W[3*2+k] != 0 {
			t.Fatalf("recycled padding not zeroed at %d: %v", k, restacked.W[3*2+k])
		}
	}
}

// TestLogSoftmaxRowsMatchesRow pins the batched log-softmax to the
// one-row reference, bitwise, row by row.
func TestLogSoftmaxRowsMatchesRow(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	a := randV(r, 5, 7)
	tape := NewForward(NewPool())
	got := tape.LogSoftmaxRows(a)
	if tape.Len() != 0 {
		t.Errorf("LogSoftmaxRows recorded %d ops on a forward tape", tape.Len())
	}
	for i := 0; i < a.R; i++ {
		want := LogSoftmaxRow(a.W[i*a.C : (i+1)*a.C])
		if !equalWSlice(got.W[i*a.C:(i+1)*a.C], want) {
			t.Errorf("row %d: %v vs %v", i, got.W[i*a.C:(i+1)*a.C], want)
		}
	}
}
