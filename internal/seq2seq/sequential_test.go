package seq2seq

import (
	"slices"
	"sort"

	"repro/internal/ad"
	"repro/internal/nn"
)

// seqCand is a candidate of the sequential decoder: the shared cand plus
// the parent's post-step decoder state, which the sequential decoder
// carries per hypothesis where the batched one keeps a state row.
type seqCand struct {
	cand
	state nn.State
}

// predictSequential is the pre-batching decoder, retained as the
// arithmetic reference: it advances every live hypothesis with its own
// batch-size-1 decode step. The batched decoder must reproduce it
// bitwise (TestPredictBatchedMatchesSequential pins tokens and
// log-probs); BenchmarkPredictSequential measures what batching buys.
func (m *Model) predictSequential(src []string, k int) []Prediction {
	pool := m.getPool()
	defer m.putPool(pool)
	return m.predictSequentialOn(ad.NewForward(pool), src, k)
}

// predictSequentialOn runs the sequential beam search on the given tape.
// The algorithm is byte-for-byte equivalent on recording and forward
// tapes (TestPredictPooledMatchesReference). Candidate selection shares
// topContinuations/candCmp with the batched decoder, so equal-score
// orderings agree between the two by construction.
func (m *Model) predictSequentialOn(tape *ad.Tape, src []string, k int) []Prediction {
	if k <= 0 {
		k = 1
	}
	width := k
	if width < 5 {
		width = 5
	}
	ids := m.Src.Encode(truncate(src, m.Cfg.MaxSrcLen))
	if len(ids) == 0 {
		ids = []int{UNK}
	}
	enc := m.encode(tape, [][]int{ids}, false)
	// The encoder outputs feed attention at every step: exempt them from
	// the per-step release cycle.
	tape.Keep()

	type beam struct {
		node    *beamNode
		logp    float64
		state   nn.State
		stopped bool
	}
	beams := []beam{{node: &beamNode{id: BOS}, state: enc.init}}
	maxLen := m.Cfg.MaxTgtLen
	if maxLen <= 0 {
		maxLen = 16
	}

	for step := 0; step < maxLen; step++ {
		var next []seqCand
		done := true
		for bi, b := range beams {
			if b.stopped {
				next = append(next, seqCand{cand{parent: b.node, beamIdx: bi, id: -1, logp: b.logp, stopped: true}, b.state})
				continue
			}
			done = false
			s, logits := m.decodeStep(tape, enc, b.state, []int{b.node.id}, false)
			logProbs := tape.LogSoftmaxRow(logits.W)
			for _, c := range topContinuations(logProbs, width, nil) {
				next = append(next, seqCand{cand{
					parent:  b.node,
					beamIdx: bi,
					id:      c.id,
					logp:    b.logp + c.lp,
					stopped: c.id == EOS,
				}, s})
			}
		}
		if done {
			break
		}
		slices.SortFunc(next, func(a, b seqCand) int { return candCmp(a.cand, b.cand) })
		if len(next) > width {
			next = next[:width]
		}
		beams = beams[:0]
		keep := make([]*ad.V, 0, 2*len(next))
		for _, c := range next {
			node := c.parent
			if c.id >= 0 {
				node = &beamNode{id: c.id, prev: c.parent}
			}
			beams = append(beams, beam{node: node, logp: c.logp, state: c.state, stopped: c.stopped})
			keep = append(keep, c.state.H, c.state.C)
		}
		// Recycle everything this step allocated except the surviving
		// decoder states; states kept for a stopped or pruned beam are
		// reclaimed by a later release once dereferenced.
		tape.ReleaseExcept(keep...)
	}

	sort.SliceStable(beams, func(i, j int) bool { return beams[i].logp > beams[j].logp })
	if len(beams) > k {
		beams = beams[:k]
	}
	out := make([]Prediction, 0, len(beams))
	for _, b := range beams {
		out = append(out, Prediction{Tokens: m.Tgt.Decode(b.node.tokens()), LogProb: b.logp})
	}
	return out
}
