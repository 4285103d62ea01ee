package seq2seq

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ad"
	"repro/internal/nn"
)

// TestLayerParamNamesUnique pins the layer-name regression: the old
// name() built layer suffixes with string(rune('0'+l)), so layers ≥ 10
// got garbled punctuation names (':' for 10, ';' for 11) instead of
// "10"/"11". A 12-layer config must register every layer under its
// decimal index, uniquely, for both encoder architectures.
func TestLayerParamNamesUnique(t *testing.T) {
	for _, tc := range []struct {
		encoder string
		want    []string
	}{
		{EncoderBiLSTM, []string{"enc.fwd10.Wx", "enc.fwd11.Wx", "enc.bwd11.Wh"}},
		{EncoderTransformer, []string{"tf.layer10.wq.W", "tf.layer11.ffn2.b", "tf.layer11.ln2g"}},
	} {
		t.Run(EncoderName(tc.encoder), func(t *testing.T) {
			cfg := testConfig()
			cfg.EncLayers = 12
			cfg.Encoder = tc.encoder
			voc := BuildVocab([][]string{{"a", "b"}}, 0)
			m := NewModel(cfg, voc, voc) // Params.Add panics on duplicates
			names := m.params.Names()
			seen := map[string]bool{}
			for _, n := range names {
				if seen[n] {
					t.Fatalf("duplicate parameter name %q", n)
				}
				seen[n] = true
			}
			for _, w := range tc.want {
				if !slices.Contains(names, w) {
					t.Errorf("parameter %q not registered; layer indices >= 10 garbled?", w)
				}
			}
		})
	}
}

// TestEncoderRegistrationOrderStable pins the serialization contract the
// interface refactor must not move: parameter registration order (which
// is the checkpoint weight order) keeps the encoder between the
// embeddings and the bridge, exactly where the pre-interface constructor
// put it.
func TestEncoderRegistrationOrderStable(t *testing.T) {
	voc := BuildVocab([][]string{{"a", "b"}}, 0)
	for _, enc := range []string{EncoderBiLSTM, EncoderTransformer} {
		cfg := testConfig()
		cfg.Encoder = enc
		names := NewModel(cfg, voc, voc).params.Names()
		if names[0] != "emb.src" || names[1] != "emb.tgt" {
			t.Fatalf("%s: embeddings not first: %v", EncoderName(enc), names[:2])
		}
		bridge := slices.Index(names, "bridge.h.W")
		if bridge < 0 {
			t.Fatalf("%s: bridge.h.W missing", EncoderName(enc))
		}
		for i := 2; i < bridge; i++ {
			prefix := "enc."
			if enc == EncoderTransformer {
				prefix = "tf."
			}
			if names[i][:len(prefix)] != prefix {
				t.Errorf("%s: name %q between embeddings and bridge is not an encoder parameter", EncoderName(enc), names[i])
			}
		}
		tail := names[bridge:]
		wantTail := []string{"bridge.h.W", "bridge.h.b", "bridge.c.W", "bridge.c.b",
			"dec.Wx", "dec.Wh", "dec.b", "combine.W", "combine.b", "out.W", "out.b"}
		if !slices.Equal(tail, wantTail) {
			t.Errorf("%s: post-encoder order %v, want %v", EncoderName(enc), tail, wantTail)
		}
	}
}

// TestPredictAttnWorkingSetWidthIndependent is the shared-attention
// memory regression test: the largest buffer beam decoding ever draws
// from its pool must not scale with beam width. The tiled decoder drew a
// [liveRows*Tmax, H] encoder copy every step — width times the packed
// encoder matrix — so reintroducing a tile trips both assertions.
func TestPredictAttnWorkingSetWidthIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	cfg := testConfig()
	cfg.MaxSrcLen = 60
	cfg.MaxTgtLen = 8
	m := buildModel(t, cfg, makeToyData(r, 80))

	srcs := make([][]string, 4)
	for i := range srcs {
		src := makeToyData(r, 8)
		for _, p := range src {
			srcs[i] = append(srcs[i], p.Src...)
		}
		srcs[i] = truncate(srcs[i], cfg.MaxSrcLen)
	}
	Tmax := 0
	for _, s := range srcs {
		if len(s) > Tmax {
			Tmax = len(s)
		}
	}

	maxBuf := func(width int) int {
		pool := ad.NewPool()
		ks := make([]int, len(srcs))
		for i := range ks {
			ks[i] = width
		}
		if _, err := m.predictMultiOn(ad.NewForward(pool), srcs, ks, nil); err != nil {
			t.Fatal(err)
		}
		return pool.MaxBufferElems()
	}

	H := m.Cfg.Hidden
	encElems := len(srcs) * Tmax * H // the shared [S*Tmax,H] operand cache
	narrow, wide := maxBuf(5), maxBuf(20)
	// At narrow width the encoder matrix is the biggest thing in the
	// pool: no attention buffer exceeds the width-independent cache.
	if narrow != encElems {
		t.Errorf("width 5: max pooled buffer %d elems, want the shared encoder matrix (%d)", narrow, encElems)
	}
	// At any width, the only buffers allowed to scale with the live-row
	// count L are the decoder's own [L,·] matrices — the largest being
	// the LSTM gate matrix [L,4H]. A tiled attention path would draw
	// [L*Tmax,H] (Tmax/4 times bigger); both checks catch it.
	gates := len(srcs) * 20 * 4 * H
	if wide > max(encElems, gates) {
		t.Errorf("width 20: max pooled buffer %d elems exceeds both the shared encoder matrix (%d) and the decoder gate batch (%d): an attention buffer is scaling with width", wide, encElems, gates)
	}
	if tile := len(srcs) * 20 * Tmax * H; wide >= tile {
		t.Errorf("max pooled buffer %d elems >= width-scaled tile %d", wide, tile)
	}
}

// buildModel trains nothing: it builds an initialized model over the
// pairs' vocabulary, enough for decode-path structure tests.
func buildModel(t *testing.T, cfg Config, pairs []Pair) *Model {
	t.Helper()
	var srcs, tgts [][]string
	for _, p := range pairs {
		srcs = append(srcs, p.Src)
		tgts = append(tgts, p.Tgt)
	}
	return NewModel(cfg, BuildVocab(srcs, cfg.SrcVocab), BuildVocab(tgts, cfg.TgtVocab))
}

// TestTokenProjectionMatchesPerStep pins the per-distinct-token input
// transforms of forward tapes (nn.Tokens: layer 0's x·Wx in both BiLSTM
// directions, the Transformer's input projection, the decoder's x·Wx)
// to the per-timestep path bit for bit, for both encoders on f64 and f32
// tapes: encoder states, decoder init, and the logits of decodeStep and
// of the batched decoder's decodeStepGrouped. Sources repeat tokens
// heavily and include UNK, an empty source and ragged lengths; the group
// is encoded sorted longest first (live rows lead, as beam search
// encodes) and unsorted (a ValidLoss batch).
func TestTokenProjectionMatchesPerStep(t *testing.T) {
	defer func(saved bool) { projectTokens = saved }(projectTokens)
	r := rand.New(rand.NewSource(23))
	var srcs, tgts [][]string
	for _, p := range makeToyData(r, 40) {
		srcs, tgts = append(srcs, p.Src), append(tgts, p.Tgt)
	}
	srcVoc, tgtVoc := BuildVocab(srcs, 0), BuildVocab(tgts, 0)
	group := [][]string{
		{"local.get", "0", "local.get", "0", "local.get", "0", "local.get", "0", "i32.add", "local.get", "0"},
		{"unseen-a", "local.get", "unseen-b", "unseen-a"}, // UNK
		{}, // encodes as UNK alone
		srcs[0], srcs[1], srcs[2],
		append(append([]string(nil), srcs[3]...), srcs[3]...),
	}
	for _, encName := range []string{EncoderBiLSTM, EncoderTransformer} {
		for _, prec := range []string{"f64", "f32"} {
			cfg := testConfig()
			cfg.Encoder = encName
			m := NewModel(cfg, srcVoc, tgtVoc)
			if err := m.SetPrecision(prec); err != nil {
				t.Fatal(err)
			}
			for _, sorted := range []bool{true, false} {
				padded := make([][]int, len(group))
				Tmax := 1
				for i, src := range group {
					ids := m.Src.Encode(truncate(src, cfg.MaxSrcLen))
					if len(ids) == 0 {
						ids = []int{UNK}
					}
					padded[i] = ids
					Tmax = max(Tmax, len(ids))
				}
				if sorted {
					slices.SortStableFunc(padded, func(a, b []int) int { return len(b) - len(a) })
				}
				for i := range padded {
					padded[i] = pad(padded[i], Tmax)
				}
				name := fmt.Sprintf("%s/%s/sorted=%v", EncoderName(encName), prec, sorted)
				projectTokens = false
				want := projectionRun(m, padded)
				projectTokens = true
				got := projectionRun(m, padded)
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Errorf("%s: value %d differs from the per-timestep path", name, i)
					}
				}
			}
		}
	}
}

// projectionRun encodes padded on a fresh forward tape of m's precision,
// runs three decodeStep steps and one decodeStepGrouped step over
// previous tokens with repeats, and returns the bits of the encoder
// states, the decoder init and every step's state and logits.
func projectionRun(m *Model, padded [][]int) [][]uint64 {
	tape := m.inferTape(ad.NewPool())
	var out [][]uint64
	keep := func(vs ...*ad.V) {
		for _, v := range vs {
			b := make([]uint64, 0, v.Elems())
			for _, x := range v.W {
				b = append(b, math.Float64bits(x))
			}
			for _, x := range v.W32 {
				b = append(b, uint64(math.Float32bits(x)))
			}
			out = append(out, b)
		}
	}
	enc := m.encode(tape, padded, false)
	keep(enc.states, enc.init.H, enc.init.C)
	B := len(padded)
	prev := make([]int, B)
	s := enc.init
	for step := 0; step < 3; step++ {
		for b := range prev {
			prev[b] = []int{BOS, EOS, 4, 4, 5}[(b+step)%5]
		}
		var logits *ad.V
		s, logits = m.decodeStep(tape, enc, s, prev, false)
		keep(s.H, s.C, logits)
	}
	// Beam-shaped rows: runs of hypotheses per search, repeated tokens.
	groups := []int{0, 0, 0, 1, 1, 3, 3, 3, 3, 3, 6}
	gprev := []int{BOS, 4, 4, 5, 5, 4, 4, 4, BOS, 6, 4}
	st := nn.GatherState(tape, enc.init, groups)
	st, logits := m.decodeStepGrouped(tape, enc.operands(), groups, st, gprev)
	keep(st.H, st.C, logits)
	return out
}
