package seq2seq

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/ad"
	"repro/internal/nn"
)

// Prediction is one beam-search hypothesis: a type-token sequence and its
// total log-probability.
type Prediction struct {
	Tokens  []string
	LogProb float64
}

// beamNode is one decoded token in a hypothesis, linked back to its
// parent. Sharing prefixes through parent pointers means extending a
// beam costs one small node instead of copying the whole sequence —
// per-step work stays constant as the search deepens.
type beamNode struct {
	id   int
	prev *beamNode
}

// tokens materializes the hypothesis token ids, root first.
func (n *beamNode) tokens() []int {
	depth := 0
	for p := n; p != nil; p = p.prev {
		depth++
	}
	out := make([]int, depth)
	for p := n; p != nil; p = p.prev {
		depth--
		out[depth] = p.id
	}
	return out
}

// predictGroup bounds how many searches one batched decode advances in
// lockstep. With width-5 beams a full group packs up to 40 hypothesis
// rows per decoder GEMM — deep enough to engage the band-fused kernels —
// while one group's padded encoder tile stays within a pooled buffer's
// working set.
const predictGroup = 8

// scoredTok is one scored continuation token of a single hypothesis.
type scoredTok struct {
	id int
	lp float64
}

// topContinuations selects the width best continuations of one
// hypothesis from its token log-probs, excluding PAD and BOS. Equal
// scores break toward the smaller token id, making the selection a total
// order independent of sort internals — the property that keeps the
// batched and sequential decoders bitwise comparable
// (TestTopContinuationsTieBreak).
//
// The selection keeps a descending-ordered window of the best width
// tokens seen so far instead of sorting the whole vocabulary row: ids
// arrive ascending, a tied newcomer never displaces an incumbent, and
// insertion keeps ties in arrival order, which realizes exactly the
// (score desc, id asc) total order.
//
// Generic over the logit element width so f32 tapes feed their rows in
// without a conversion pass; scores widen to float64 on entry and beam
// totals accumulate in float64 on every engine, so ranking and reported
// log-probs share one comparison domain.
func topContinuations[F ~float64 | ~float32](logProbs []F, width int, buf []scoredTok) []scoredTok {
	cands := buf[:0]
	if width <= 0 {
		return cands
	}
	for id, lpn := range logProbs {
		if id == PAD || id == BOS {
			continue
		}
		lp := float64(lpn)
		if len(cands) == width {
			if lp <= cands[width-1].lp {
				continue
			}
			cands = cands[:width-1]
		}
		j := len(cands)
		cands = append(cands, scoredTok{})
		for j > 0 && cands[j-1].lp < lp {
			cands[j] = cands[j-1]
			j--
		}
		cands[j] = scoredTok{id, lp}
	}
	return cands
}

// rowLogProbs slices hypothesis row r out of the step's log-prob batch
// and selects its top continuations, reading whichever storage the
// tape produced (float64, or float32 on f32 tapes).
func rowLogProbs(lps *ad.V, r, width int, buf []scoredTok) []scoredTok {
	if len(lps.W) > 0 {
		return topContinuations(lps.W[r*lps.C:(r+1)*lps.C], width, buf)
	}
	return topContinuations(lps.W32[r*lps.C:(r+1)*lps.C], width, buf)
}

// cand is a scored continuation (or a carried-over stopped beam) of one
// search. Sequences are materialized only for the width survivors of
// each step, not for every scored candidate.
type cand struct {
	parent  *beamNode
	beamIdx int // index of the parent beam within its search
	id      int // continuation token id; -1 for a carried stopped beam
	logp    float64
	row     int // parent's row in the step's batched decoder output
	stopped bool
}

// candCmp orders a step's candidates for pruning: total log-prob
// descending, then parent beam index, then token id. The two tie keys
// turn equal-probability candidates into a deterministic total order, so
// pruning does not depend on candidate arrival order or sort internals
// (TestCandTieBreak).
func candCmp(a, b cand) int {
	switch {
	case a.logp > b.logp:
		return -1
	case a.logp < b.logp:
		return 1
	}
	if a.beamIdx != b.beamIdx {
		return a.beamIdx - b.beamIdx
	}
	return a.id - b.id
}

// Predict returns the k most likely target sequences for the source token
// sequence, using beam search with beam width max(k, 5) as in the paper's
// top-5 evaluation. Duplicate hypotheses are kept, as the paper notes the
// raw model is not constrained to produce unique predictions.
//
// All live hypotheses advance in one batched decode step per token
// (predictMultiOn), so each step runs the band-fused GEMM kernels once
// for the whole beam instead of a matvec per hypothesis; the output is
// bitwise identical to decoding each hypothesis alone
// (TestPredictBatchedMatchesSequential, against a sequential reference
// decoder kept in the tests). Inference runs on a
// forward-only tape whose buffers recycle between decode steps (see
// ad.NewForward), so a call's memory footprint is bounded by one step's
// working set rather than the whole maxLen × width search. Predict is
// safe for concurrent use; each call draws its own buffer pool.
func (m *Model) Predict(src []string, k int) []Prediction {
	pool := m.getPool()
	defer m.putPool(pool)
	out, _ := m.predictMultiOn(m.inferTape(pool), [][]string{src}, []int{k}, nil)
	return out[0]
}

// PredictBatch predicts every source sequence with one beam cutoff k,
// decoding up to predictGroup searches together per batched step. For
// concurrent evaluation over many examples, use EvalParallel.
func (m *Model) PredictBatch(srcs [][]string, k int) [][]Prediction {
	ks := make([]int, len(srcs))
	for i := range ks {
		ks[i] = k
	}
	return m.PredictMulti(srcs, ks)
}

// PredictMulti predicts every source sequence with its own beam cutoff
// ks[i], decoding up to predictGroup searches — all their live
// hypotheses — in one batched decoder step per token. Output slot i is
// exactly Predict(srcs[i], ks[i]); grouping only changes how many GEMM
// calls the decoding costs, not any result bit.
func (m *Model) PredictMulti(srcs [][]string, ks []int) [][]Prediction {
	out, err := m.predictMulti(srcs, ks, nil)
	if err != nil {
		// Unreachable: without a stop hook predictMulti cannot fail.
		panic(err)
	}
	return out
}

// PredictMultiCtx is PredictMulti with cooperative cancellation: the
// decode checks ctx between groups and between decoder steps, so an
// abandoned caller (an expired server request) stops burning decode time
// within one step's latency instead of running every search to
// completion. On cancellation the partial results are discarded and
// ctx's error is returned. A nil-error return is bitwise identical to
// PredictMulti.
func (m *Model) PredictMultiCtx(ctx context.Context, srcs [][]string, ks []int) ([][]Prediction, error) {
	return m.predictMulti(srcs, ks, ctx.Err)
}

func (m *Model) predictMulti(srcs [][]string, ks []int, stop func() error) ([][]Prediction, error) {
	if len(ks) != len(srcs) {
		panic(fmt.Sprintf("seq2seq: PredictMulti %d sources, %d cutoffs", len(srcs), len(ks)))
	}
	pool := m.getPool()
	defer m.putPool(pool)
	out := make([][]Prediction, 0, len(srcs))
	for lo := 0; lo < len(srcs); lo += predictGroup {
		hi := min(lo+predictGroup, len(srcs))
		group, err := m.predictMultiOn(m.inferTape(pool), srcs[lo:hi], ks[lo:hi], stop)
		if err != nil {
			return nil, err
		}
		out = append(out, group...)
	}
	return out, nil
}

// msearch is one beam search of a batched group.
type msearch struct {
	k, width int
	beams    []mbeam
}

// mbeam is one live hypothesis of a batched search.
type mbeam struct {
	node    *beamNode
	logp    float64
	row     int // this beam's state row in the current batched state
	liveRow int // per-step scratch: row in the step's decode batch
	stopped bool
}

// predictMultiOn runs len(srcs) independent beam searches in lockstep on
// one tape, advancing every live hypothesis of every search in a single
// batched decode step per token.
//
// Layout: the group encodes as one PAD-padded batch into an [S*Tmax, H]
// block matrix, zero-padded past each search's real length with the
// padding masked out of attention. That matrix and its mask are the
// per-search attention operands, cached once at encode time
// (encoded.operands) and read in place by every decode step. Each step
// gathers the live hypotheses' decoder states into a [L, H] batch
// (nn.GatherState) and decodes once with the grouped attention ops
// (decodeStepGrouped): row l attends over shared block rowSearch[l]
// directly — no per-hypothesis tiled copy, so attention memory traffic
// per step is one [Tmax,H] block per search regardless of beam width —
// then scores all rows with one LogSoftmaxRows. Every op involved is
// row-wise independent with fixed ascending-index accumulation, so each
// hypothesis's numbers are bit-identical to decoding it alone — batching
// changes the GEMM shape, not the results (TestPredictBatchedMatchesSequential).
//
// stop (may be nil) is polled at every decoder step; a non-nil return
// aborts the decode and propagates that error, discarding the partial
// beams. The poll sits outside every accumulation, so a decode that runs
// to completion is bitwise independent of whether stop was supplied.
func (m *Model) predictMultiOn(tape *ad.Tape, srcs [][]string, ks []int, stop func() error) ([][]Prediction, error) {
	S := len(srcs)
	if S == 0 {
		return nil, nil
	}
	maxLen := m.Cfg.MaxTgtLen
	if maxLen <= 0 {
		maxLen = 16
	}

	// Encode the whole group as one PAD-padded batch. Every encoder op is
	// row-wise independent and StepMasked holds each row's state across
	// its padding steps, so row si of the batch is bit-identical to
	// encoding srcs[si] alone — batching only changes the GEMM shapes.
	padded := make([][]int, S)
	Tmax := 1
	for si, src := range srcs {
		ids := m.Src.Encode(truncate(src, m.Cfg.MaxSrcLen))
		if len(ids) == 0 {
			ids = []int{UNK}
		}
		padded[si] = ids
		if len(ids) > Tmax {
			Tmax = len(ids)
		}
	}
	for si, ids := range padded {
		padded[si] = pad(ids, Tmax)
	}
	enc := m.encode(tape, padded, false)
	ops := enc.operands()                    // [S*Tmax, H] shared blocks + mask
	stateH, stateC := enc.init.H, enc.init.C // [S, H]
	// The cached attention operands feed every decode step in place:
	// exempt them (and everything before them) from the per-step release
	// cycle.
	tape.Keep()

	searches := make([]msearch, S)
	for si := range searches {
		k := ks[si]
		if k <= 0 {
			k = 1
		}
		width := k
		if width < 5 {
			width = 5
		}
		searches[si] = msearch{
			k: k, width: width,
			beams: []mbeam{{node: &beamNode{id: BOS}, row: si}},
		}
	}

	var (
		prev      []int
		gatherIdx []int
		rowSearch []int // owning search of each live row
		cbuf      []cand
		sbuf      []scoredTok
	)
	for step := 0; step < maxLen; step++ {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, err
			}
		}
		prev, gatherIdx, rowSearch = prev[:0], gatherIdx[:0], rowSearch[:0]
		for si := range searches {
			for bi := range searches[si].beams {
				b := &searches[si].beams[bi]
				if b.stopped {
					continue
				}
				b.liveRow = len(prev)
				prev = append(prev, b.node.id)
				gatherIdx = append(gatherIdx, b.row)
				rowSearch = append(rowSearch, si)
			}
		}
		if len(prev) == 0 {
			break
		}
		st := nn.GatherState(tape, nn.State{H: stateH, C: stateC}, gatherIdx)
		newState, logits := m.decodeStepGrouped(tape, ops, rowSearch, st, prev)
		lps := tape.LogSoftmaxRows(logits)

		for si := range searches {
			sr := &searches[si]
			cands := cbuf[:0]
			anyLive := false
			for bi := range sr.beams {
				b := &sr.beams[bi]
				if b.stopped {
					cands = append(cands, cand{parent: b.node, beamIdx: bi, id: -1, logp: b.logp, stopped: true})
					continue
				}
				anyLive = true
				top := rowLogProbs(lps, b.liveRow, sr.width, sbuf)
				sbuf = top[:0]
				for _, c := range top {
					cands = append(cands, cand{
						parent:  b.node,
						beamIdx: bi,
						id:      c.id,
						logp:    b.logp + c.lp,
						row:     b.liveRow,
						stopped: c.id == EOS,
					})
				}
			}
			cbuf = cands[:0]
			if !anyLive {
				continue // search finished on an earlier step
			}
			slices.SortFunc(cands, candCmp)
			if len(cands) > sr.width {
				cands = cands[:sr.width]
			}
			sr.beams = sr.beams[:0]
			for _, c := range cands {
				node := c.parent
				if c.id >= 0 { // a carried stopped beam keeps its node
					node = &beamNode{id: c.id, prev: c.parent}
				}
				sr.beams = append(sr.beams, mbeam{node: node, logp: c.logp, row: c.row, stopped: c.stopped})
			}
		}
		stateH, stateC = newState.H, newState.C
		// Recycle everything this step allocated except the surviving
		// state batch; the attention operands live above the Keep mark.
		tape.ReleaseExcept(stateH, stateC)
	}

	out := make([][]Prediction, S)
	for si := range searches {
		sr := &searches[si]
		sort.SliceStable(sr.beams, func(i, j int) bool { return sr.beams[i].logp > sr.beams[j].logp })
		beams := sr.beams
		if len(beams) > sr.k {
			beams = beams[:sr.k]
		}
		preds := make([]Prediction, 0, len(beams))
		for _, b := range beams {
			preds = append(preds, Prediction{Tokens: m.Tgt.Decode(b.node.tokens()), LogProb: b.logp})
		}
		out[si] = preds
	}
	return out, nil
}
