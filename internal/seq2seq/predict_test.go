package seq2seq

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/ad"
	"repro/internal/nn"
)

// referencePredict is the pre-pooling beam search, kept as an oracle: it
// records a full gradient tape and copies every hypothesis sequence on
// extension. Only the candidate tie-breaking matches the production
// comparators (token id, then stability over beam order); everything
// else is the original algorithm. The production Predict must produce
// bitwise identical output on its forward-only, buffer-recycling,
// batch-decoding tape.
func referencePredict(m *Model, src []string, k int) []Prediction {
	if k <= 0 {
		k = 1
	}
	width := k
	if width < 5 {
		width = 5
	}
	tape := ad.NewTape() // inference-only; Backward is never called
	ids := m.Src.Encode(truncate(src, m.Cfg.MaxSrcLen))
	if len(ids) == 0 {
		ids = []int{UNK}
	}
	enc := m.encode(tape, [][]int{ids}, false)

	type beam struct {
		seq     []int
		logp    float64
		state   nn.State
		stopped bool
	}
	beams := []beam{{seq: []int{BOS}, state: enc.init}}
	maxLen := m.Cfg.MaxTgtLen
	if maxLen <= 0 {
		maxLen = 16
	}

	for step := 0; step < maxLen; step++ {
		var next []beam
		done := true
		for _, b := range beams {
			if b.stopped {
				next = append(next, b)
				continue
			}
			done = false
			s, logits := m.decodeStep(tape, enc, b.state, []int{b.seq[len(b.seq)-1]}, false)
			logProbs := ad.LogSoftmaxRow(logits.W)
			type cand struct {
				id int
				lp float64
			}
			cands := make([]cand, 0, len(logProbs))
			for id, lp := range logProbs {
				if id == PAD || id == BOS {
					continue
				}
				cands = append(cands, cand{id, lp})
			}
			// Same tie-breaking as topContinuations: equal scores go to
			// the smaller token id. Combined with the stable sort over
			// beam-ordered candidates below, the reference realizes the
			// exact total order candLess defines.
			sort.Slice(cands, func(i, j int) bool {
				if cands[i].lp != cands[j].lp {
					return cands[i].lp > cands[j].lp
				}
				return cands[i].id < cands[j].id
			})
			if len(cands) > width {
				cands = cands[:width]
			}
			for _, c := range cands {
				next = append(next, beam{
					seq:     append(append([]int(nil), b.seq...), c.id),
					logp:    b.logp + c.lp,
					state:   s,
					stopped: c.id == EOS,
				})
			}
		}
		if done {
			break
		}
		sort.SliceStable(next, func(i, j int) bool { return next[i].logp > next[j].logp })
		if len(next) > width {
			next = next[:width]
		}
		beams = next
	}

	sort.SliceStable(beams, func(i, j int) bool { return beams[i].logp > beams[j].logp })
	if len(beams) > k {
		beams = beams[:k]
	}
	out := make([]Prediction, 0, len(beams))
	for _, b := range beams {
		out = append(out, Prediction{Tokens: m.Tgt.Decode(b.seq), LogProb: b.logp})
	}
	return out
}

// predictTestModel trains a small model and returns test sources.
func predictTestModel(t testing.TB, epochs int) (*Model, [][]string) {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	train := makeToyData(r, 150)
	test := makeToyData(r, 25)
	cfg := testConfig()
	cfg.Epochs = epochs
	m := Train(cfg, train, nil, nil)
	srcs := make([][]string, len(test))
	for i, p := range test {
		srcs[i] = p.Src
	}
	return m, srcs
}

func TestPredictPooledMatchesReference(t *testing.T) {
	m, srcs := predictTestModel(t, 3)
	for _, k := range []int{1, 5, 8} {
		for i, src := range srcs {
			want := referencePredict(m, src, k)
			got := m.Predict(src, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d src %d: pooled prediction diverged from reference\ngot  %v\nwant %v", k, i, got, want)
			}
			// A second call reuses recycled buffers; it must not be
			// contaminated by the first.
			if again := m.Predict(src, k); !reflect.DeepEqual(again, want) {
				t.Fatalf("k=%d src %d: repeat prediction diverged", k, i)
			}
		}
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	m, srcs := predictTestModel(t, 2)
	batch := m.PredictBatch(srcs, 5)
	if len(batch) != len(srcs) {
		t.Fatalf("PredictBatch returned %d results for %d inputs", len(batch), len(srcs))
	}
	for i, src := range srcs {
		if want := m.Predict(src, 5); !reflect.DeepEqual(batch[i], want) {
			t.Fatalf("src %d: PredictBatch diverged from Predict", i)
		}
	}
	if got := m.PredictBatch(nil, 5); len(got) != 0 {
		t.Errorf("PredictBatch(nil) = %v", got)
	}
}

func TestEvalParallelDeterministic(t *testing.T) {
	m, srcs := predictTestModel(t, 2)
	want := EvalParallel(m, srcs, 5, 1, nil)
	for _, par := range []int{0, 2, 4, 8} {
		var observed int64
		got := EvalParallel(m, srcs, 5, par, func(i int, seconds float64) {
			if i < 0 || i >= len(srcs) || seconds < 0 {
				t.Errorf("observe(%d, %g)", i, seconds)
			}
			atomic.AddInt64(&observed, 1)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("par=%d: results differ from serial evaluation", par)
		}
		if observed != int64(len(srcs)) {
			t.Errorf("par=%d: observe called %d times, want %d", par, observed, len(srcs))
		}
	}
	if got := EvalParallel(m, nil, 5, 4, nil); len(got) != 0 {
		t.Errorf("EvalParallel(no inputs) = %v", got)
	}
}

// TestPredictConcurrent hammers Predict from many goroutines; run under
// -race (scripts/verify.sh does) to verify per-call buffer pools never
// share tensors across calls.
func TestPredictConcurrent(t *testing.T) {
	m, srcs := predictTestModel(t, 2)
	want := make([][]Prediction, len(srcs))
	for i, src := range srcs {
		want[i] = m.Predict(src, 5)
	}
	done := make(chan int, 4*len(srcs))
	for w := 0; w < 4; w++ {
		go func() {
			for i, src := range srcs {
				if !reflect.DeepEqual(m.Predict(src, 5), want[i]) {
					done <- i
					return
				}
			}
			done <- -1
		}()
	}
	for w := 0; w < 4; w++ {
		if i := <-done; i >= 0 {
			t.Fatalf("concurrent Predict diverged on src %d", i)
		}
	}
}

// TestPredictAllocsBounded checks the point of the tape rework: pooled
// inference allocates a small fraction of what the recording tape did,
// because per-step tensors recycle instead of accumulating over
// maxLen × width decode steps.
func TestPredictAllocsBounded(t *testing.T) {
	m, srcs := predictTestModel(t, 1)
	src := srcs[0]
	m.Predict(src, 5) // warm the buffer pool
	pooled := testing.AllocsPerRun(20, func() { m.Predict(src, 5) })
	reference := testing.AllocsPerRun(20, func() { referencePredict(m, src, 5) })
	if pooled > reference/2 {
		t.Errorf("pooled Predict allocates %.0f objects/run, reference %.0f — pooling is not engaging", pooled, reference)
	}
}

// TestPredictBatchedMatchesSequential is the oracle for the batched
// decoder: across beam widths 1/5/8 and the toy set's ragged source
// lengths, Predict (all hypotheses in one batched step) and PredictBatch
// (several searches per step, sharing padded encoder tiles) must
// reproduce the retained sequential decoder bitwise — tokens and
// log-probs. reflect.DeepEqual compares float64s with ==, so any
// summation-order drift fails the test.
func TestPredictBatchedMatchesSequential(t *testing.T) {
	m, srcs := predictTestModel(t, 3)
	lens := map[int]bool{}
	for _, src := range srcs {
		lens[len(src)] = true
	}
	if len(lens) < 3 {
		t.Fatalf("toy sources not ragged enough for the oracle: lengths %v", lens)
	}
	for _, k := range []int{1, 5, 8} {
		want := make([][]Prediction, len(srcs))
		for i, src := range srcs {
			want[i] = m.predictSequential(src, k)
		}
		for i, src := range srcs {
			if got := m.Predict(src, k); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("k=%d src %d: batched Predict diverged from sequential\ngot  %v\nwant %v", k, i, got, want[i])
			}
		}
		batch := m.PredictBatch(srcs, k)
		for i := range srcs {
			if !reflect.DeepEqual(batch[i], want[i]) {
				t.Fatalf("k=%d src %d: PredictBatch diverged from sequential\ngot  %v\nwant %v", k, i, batch[i], want[i])
			}
		}
	}
}

// TestPredictMultiMixedK checks per-search beam cutoffs inside one
// batched group: searches with different ks decode together and each
// slot still equals the sequential decoder at its own k.
func TestPredictMultiMixedK(t *testing.T) {
	m, srcs := predictTestModel(t, 2)
	ks := make([]int, len(srcs))
	for i := range ks {
		ks[i] = []int{1, 5, 8, 3}[i%4]
	}
	got := m.PredictMulti(srcs, ks)
	for i, src := range srcs {
		if want := m.predictSequential(src, ks[i]); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("src %d k=%d: PredictMulti diverged from sequential\ngot  %v\nwant %v", i, ks[i], got[i], want)
		}
	}
}

// TestTopContinuationsTieBreak pins the per-hypothesis selection order
// on equal scores: the smaller token id wins, regardless of sort
// internals or candidate arrival order.
func TestTopContinuationsTieBreak(t *testing.T) {
	// Vocab of 8; ids 0 (PAD) and 1 (BOS) are excluded. Ties at -1.0
	// between ids 7, 4, 6 and at -2.0 between ids 3, 5.
	lps := []float64{0, 0, -3, -2, -1, -2, -1, -1}
	got := topContinuations(lps, 4, nil)
	want := []scoredTok{{4, -1}, {6, -1}, {7, -1}, {3, -2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("topContinuations = %v, want %v", got, want)
	}
	// Width larger than the candidate count returns everything, still in
	// total order.
	all := topContinuations(lps, 10, nil)
	wantAll := []scoredTok{{4, -1}, {6, -1}, {7, -1}, {3, -2}, {5, -2}, {2, -3}}
	if !reflect.DeepEqual(all, wantAll) {
		t.Errorf("topContinuations(all) = %v, want %v", all, wantAll)
	}
}

// TestCandTieBreak pins pruning order across beams: score descending,
// then parent beam index, then token id — a total order, so equal-score
// candidates from different beams cannot swap between refactors.
func TestCandTieBreak(t *testing.T) {
	cands := []cand{
		{beamIdx: 2, id: 4, logp: -1},
		{beamIdx: 0, id: -1, logp: -1},
		{beamIdx: 1, id: 9, logp: -1},
		{beamIdx: 1, id: 5, logp: -1},
		{beamIdx: 0, id: 3, logp: -0.5},
	}
	slices.SortFunc(cands, candCmp)
	var order []int
	for _, c := range cands {
		order = append(order, c.id)
	}
	// Best score first; within the -1 tie: beam 0's carried beam (id -1),
	// then beam 1's ids ascending, then beam 2.
	if want := []int{3, -1, 5, 9, 4}; !reflect.DeepEqual(order, want) {
		t.Errorf("pruning order %v, want %v", order, want)
	}
}

// benchVocab builds an n-token synthetic vocabulary (plus specials).
func benchVocab(prefix string, n int) *Vocab {
	toks := make([]string, n)
	for i := range toks {
		toks[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return BuildVocab([][]string{toks}, 0)
}

// benchSrc draws a source sequence of the given length from the
// synthetic source vocabulary.
func benchSrc(r *rand.Rand, v *Vocab, n int) []string {
	src := make([]string, n)
	for i := range src {
		src[i] = v.Token(len(specials) + r.Intn(v.Size()-len(specials)))
	}
	return src
}

// benchmarkModel builds an untrained model at the paper's configured
// scale — DefaultConfig shapes (Hidden 64, Embed 48) over ~500-subword
// vocabularies and a 60-token source — so decode steps are dominated by
// the same GEMMs as real inference (the out-projection in particular).
// Untrained weights keep every beam alive to maxTgtLen, making the
// decode work fixed across runs.
func benchmarkModel(maxTgtLen int) (*Model, []string) {
	return benchmarkModelEncoder(maxTgtLen, EncoderBiLSTM)
}

func benchmarkModelEncoder(maxTgtLen int, encoder string) (*Model, []string) {
	r := rand.New(rand.NewSource(3))
	cfg := DefaultConfig()
	cfg.MaxTgtLen = maxTgtLen
	cfg.Encoder = encoder
	m := NewModel(cfg, benchVocab("ins", 500), benchVocab("ty", 400))
	return m, benchSrc(r, m.Src, 60)
}

// benchGroup builds the shared throughput workload: one predictGroup of
// ragged sources (48–72 tokens, fixed seed) against the paper-scale
// model. Both the batched and sequential decoder benchmarks run exactly
// these sources, so their ns/search numbers divide into a clean ratio.
func benchGroup(maxTgtLen int) (*Model, [][]string) {
	return benchGroupEncoder(maxTgtLen, EncoderBiLSTM)
}

func benchGroupEncoder(maxTgtLen int, encoder string) (*Model, [][]string) {
	m, _ := benchmarkModelEncoder(maxTgtLen, encoder)
	r := rand.New(rand.NewSource(7))
	srcs := make([][]string, predictGroup)
	for i := range srcs {
		srcs[i] = benchSrc(r, m.Src, 48+r.Intn(25))
	}
	return m, srcs
}

// BenchmarkPredict measures batched beam-search throughput at width 5:
// a group of predictGroup searches is encoded as one padded batch and
// all live hypotheses advance through one decoder GEMM per step. The
// headline metric is ns/search; the ratio against
// BenchmarkPredictSequential on the same sources is what batching buys
// (band-eligible GEMMs that dispatch to the AVX2 micro-kernels, where
// the sequential reference's batch-size-1 matvecs stay scalar).
func BenchmarkPredict(b *testing.B) {
	for _, maxLen := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("maxLen=%d", maxLen), func(b *testing.B) {
			m, srcs := benchGroup(maxLen)
			m.PredictBatch(srcs, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictBatch(srcs, 5)
			}
			b.StopTimer()
			perSearch := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(srcs))
			b.ReportMetric(perSearch, "ns/search")
		})
	}
}

// BenchmarkPredictReference measures the old recording-tape beam search
// on the same sources for comparison.
func BenchmarkPredictReference(b *testing.B) {
	m, srcs := benchGroup(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			referencePredict(m, src, 5)
		}
	}
	b.StopTimer()
	perSearch := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(srcs))
	b.ReportMetric(perSearch, "ns/search")
}

// BenchmarkPredictSequential measures the retained sequential decoder —
// one batch-size-1 encode and one batch-size-1 decode step per live
// hypothesis — over the same sources as BenchmarkPredict.
func BenchmarkPredictSequential(b *testing.B) {
	for _, maxLen := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("maxLen=%d", maxLen), func(b *testing.B) {
			m, srcs := benchGroup(maxLen)
			m.predictSequential(srcs[0], 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					m.predictSequential(src, 5)
				}
			}
			b.StopTimer()
			perSearch := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(srcs))
			b.ReportMetric(perSearch, "ns/search")
		})
	}
}

// BenchmarkPredictBatched measures multi-search decoding: a full group
// of predictGroup searches advances all its live hypotheses — up to
// group × width rows — per decoder GEMM. Reported per search, so the
// number is comparable to BenchmarkPredict (group=1 is Predict's path).
func BenchmarkPredictBatched(b *testing.B) {
	for _, group := range []int{1, predictGroup} {
		b.Run(fmt.Sprintf("group=%d", group), func(b *testing.B) {
			m, _ := benchmarkModel(16)
			r := rand.New(rand.NewSource(7))
			srcs := make([][]string, group)
			for i := range srcs {
				srcs[i] = benchSrc(r, m.Src, 48+r.Intn(25)) // ragged lengths
			}
			m.PredictBatch(srcs, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictBatch(srcs, 5)
			}
			b.StopTimer()
			perSearch := float64(b.Elapsed().Nanoseconds()) / float64(b.N*group)
			b.ReportMetric(perSearch, "ns/search")
		})
	}
}

// BenchmarkPredictSharedAttn sweeps beam width over the shared-encoder
// attention decode path. Each hypothesis row attends over its search's
// [Tmax,H] encoder block in place (decodeStepGrouped), so widening the
// beam grows the decoder GEMMs but not attention's memory traffic; the
// maxbuf-KiB metric reports the largest buffer the decode drew from its
// pool. At narrow widths that is the shared encoder matrix (flat across
// widths); at wide beams the decoder's own row-scaled matrices (logits,
// gates) take over. The old tiled path instead drew one
// [liveRows*Tmax,H] encoder copy per step — width times the shared
// matrix — which dominated everything at every width.
func BenchmarkPredictSharedAttn(b *testing.B) {
	for _, width := range []int{5, 10, 20} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			m, srcs := benchGroup(16)
			ks := make([]int, len(srcs))
			for i := range ks {
				ks[i] = width
			}
			pool := ad.NewPool()
			run := func() {
				if _, err := m.predictMultiOn(ad.NewForward(pool), srcs, ks, nil); err != nil {
					b.Fatal(err)
				}
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			perSearch := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(srcs))
			b.ReportMetric(perSearch, "ns/search")
			b.ReportMetric(float64(pool.MaxBufferElems())*8/1024, "maxbuf-KiB")
		})
	}
}
