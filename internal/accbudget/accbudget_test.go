package accbudget

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/quant"
)

// tinyPredictor trains the smallest useful predictor, matching the
// shape core's own tests use.
func tinyPredictor(t *testing.T) *core.Predictor {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Corpus.Packages = 16
	cfg.Corpus.MinFuncs = 3
	cfg.Corpus.MaxFuncs = 5
	cfg.Model.Hidden = 32
	cfg.Model.Embed = 24
	cfg.Model.Epochs = 1
	cfg.Model.MaxSrcLen = 60
	cfg.BPESrcVocab = 300
	p, err := core.TrainPredictor(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHarnessEndToEnd drives the full accuracy-budget flow on the
// checked-in evaluation binaries: extract queries, compare the
// reference against itself (must agree perfectly), then against its
// quantized f32-engine counterpart (must produce a consistent report).
func TestHarnessEndToEnd(t *testing.T) {
	p := tinyPredictor(t)
	queries, skipped, err := QueriesFromDir(p, "../ingest/testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) == 0 {
		t.Fatal("no queries extracted from evaluation binaries")
	}
	if len(skipped) != 0 {
		t.Errorf("skipped %v: acctest must score every binary ingest reports on", skipped)
	}
	// The query set is the element set `snowwhite ingest -eval` reports.
	dir, err := (&ingest.Ingester{}).Dir("../ingest/testdata", 1)
	if err != nil {
		t.Fatal(err)
	}
	elems := 0
	for _, b := range dir.Binaries {
		for _, f := range b.Funcs {
			elems += len(f.Elements)
		}
	}
	if len(queries) != elems {
		t.Errorf("%d queries, want the %d elements an ingest report lists", len(queries), elems)
	}
	t.Logf("%d queries extracted", len(queries))
	var params, returns int
	for _, q := range queries {
		switch q.Kind {
		case Param:
			params++
		case Return:
			returns++
		default:
			t.Fatalf("query with unknown kind %q", q.Kind)
		}
		if len(q.Src) == 0 {
			t.Fatalf("query %s/%d/%s has empty input", q.Binary, q.Func, q.Elem)
		}
	}
	if params == 0 || returns == 0 {
		t.Fatalf("want both kinds represented, got %d params, %d returns", params, returns)
	}

	// Reference vs itself: perfect agreement, and the gate passes.
	self := Compare(p, p, queries, 3)
	if self.Total != len(queries) {
		t.Errorf("self-compare scored %d of %d queries", self.Total, len(queries))
	}
	if self.Top1Agreement() != 1 || self.TopKAgreement() != 1 {
		t.Errorf("self-compare agreement = %g/%g, want 1/1 (mismatches: %v)",
			self.Top1Agreement(), self.TopKAgreement(), self.Mismatches)
	}
	if !self.Pass(0.99) {
		t.Error("self-compare failed the 99%% budget")
	}
	// An unreachable budget must fail even at full agreement.
	if self.Pass(1.01) {
		t.Error("Pass accepted an unreachable budget")
	}
	if self.ParamTotal+self.ReturnTotal != self.Total {
		t.Errorf("kind totals %d+%d do not sum to %d", self.ParamTotal, self.ReturnTotal, self.Total)
	}

	// Reference vs quantized f32-engine candidate: the report must stay
	// internally consistent whatever the agreement comes out to.
	for _, mode := range []quant.Mode{quant.F32, quant.Int8} {
		q, err := core.QuantizePredictor(p, mode)
		if err != nil {
			t.Fatal(err)
		}
		rep := Compare(p, q, queries, 3)
		if rep.Total != len(queries) {
			t.Errorf("%s: scored %d of %d queries", mode, rep.Total, len(queries))
		}
		if rep.TopKMatches < rep.Top1Matches || rep.TopKMatches > rep.Total {
			t.Errorf("%s: inconsistent counts top1=%d topk=%d total=%d",
				mode, rep.Top1Matches, rep.TopKMatches, rep.Total)
		}
		if len(rep.Mismatches) < maxMismatches && rep.Total-rep.TopKMatches != len(rep.Mismatches) {
			t.Errorf("%s: %d mismatches recorded for %d disagreements",
				mode, len(rep.Mismatches), rep.Total-rep.TopKMatches)
		}
		t.Logf("%s: top-1 %.3f, top-3 %.3f (%d/%d)", mode,
			rep.Top1Agreement(), rep.TopKAgreement(), rep.TopKMatches, rep.Total)
	}
}

// TestReportEdgeCases pins the gate's behavior on degenerate inputs.
func TestReportEdgeCases(t *testing.T) {
	empty := &Report{TopK: 3}
	if empty.Pass(0.0) {
		t.Error("empty report passed the gate")
	}
	if empty.Top1Agreement() != 0 || empty.TopKAgreement() != 0 {
		t.Error("empty report has nonzero agreement")
	}
	r := &Report{TopK: 3, Total: 100, TopKMatches: 99, Top1Matches: 90}
	if !r.Pass(0.99) {
		t.Error("99/100 failed a 0.99 budget")
	}
	if r.Pass(0.995) {
		t.Error("99/100 passed a 0.995 budget")
	}
}
