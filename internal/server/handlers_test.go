package server

import (
	"context"
	"testing"

	"repro/internal/ingest"
	"repro/internal/wasm"
)

// loadModule encodes a hand-built module and loads it the way the
// handler does.
func loadModule(t *testing.T, m *wasm.Module) *ingest.Loaded {
	t.Helper()
	bin, _, err := wasm.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := ingest.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

// TestResolveFuncsNameBeforeIndex covers the selector-precedence fix: an
// export literally named "3" must resolve as a name, not be shadowed by
// parsing "3" as function index 3.
func TestResolveFuncsNameBeforeIndex(t *testing.T) {
	ld := loadModule(t, &wasm.Module{
		Types: []wasm.FuncType{{}},
		Funcs: make([]wasm.Function, 5),
		Exports: []wasm.Export{
			{Name: "3", Kind: wasm.KindFunc, Index: 1},
		},
	})
	got, err := resolveFuncs(ld, "3")
	if err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf(`resolveFuncs("3") = %v, %v; want [1] (the export named "3")`, got, err)
	}
	// Numeric fallback still works for selectors that name nothing.
	got, err = resolveFuncs(ld, "4")
	if err != nil || len(got) != 1 || got[0] != 4 {
		t.Fatalf(`resolveFuncs("4") = %v, %v; want [4]`, got, err)
	}
	if _, err := resolveFuncs(ld, "99"); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := resolveFuncs(ld, "nope"); err == nil {
		t.Error("unknown name accepted")
	}
	if got, err := resolveFuncs(ld, ""); err != nil || len(got) != 5 {
		t.Errorf("empty selector = %v, %v; want all 5 functions", got, err)
	}
}

// TestResolveFuncsNamePriority checks the selector's name semantics:
// export indices are in the full function index space (imports first),
// names from a real name section resolve, every export alias resolves,
// and the lowest defined-function index wins an ambiguous name.
func TestResolveFuncsNamePriority(t *testing.T) {
	m := &wasm.Module{
		Types:   []wasm.FuncType{{}},
		Imports: []wasm.Import{{Module: "env", Name: "host", Kind: wasm.KindFunc}},
		Funcs:   []wasm.Function{{Name: "dbg"}, {}, {}},
		Exports: []wasm.Export{
			// Both name defined functions (index space offset by 1 import);
			// the lower defined index must win.
			{Name: "dup", Kind: wasm.KindFunc, Index: 3}, // defined func 2
			{Name: "dup", Kind: wasm.KindFunc, Index: 2}, // defined func 1
			// An alias of the function the name section calls "dbg".
			{Name: "alias", Kind: wasm.KindFunc, Index: 1}, // defined func 0
		},
	}
	wasm.AttachNames(m, "mod") // the decoder never fills Function.Name
	ld := loadModule(t, m)
	if got, err := resolveFuncs(ld, "dup"); err != nil || len(got) != 1 || got[0] != 1 {
		t.Errorf(`resolveFuncs("dup") = %v, %v; want [1] (lowest function index)`, got, err)
	}
	if got, err := resolveFuncs(ld, "dbg"); err != nil || len(got) != 1 || got[0] != 0 {
		t.Errorf(`resolveFuncs("dbg") = %v, %v; want [0] (name-section name)`, got, err)
	}
	if got, err := resolveFuncs(ld, "alias"); err != nil || len(got) != 1 || got[0] != 0 {
		t.Errorf(`resolveFuncs("alias") = %v, %v; want [0] (export alias)`, got, err)
	}
	if got, err := resolveFuncs(ld, "host"); err == nil {
		t.Errorf(`resolveFuncs("host") = %v; an imported function is not predictable`, got)
	}
}

// TestPredictTypedCtxCancellation covers the ctx-threading fix: a decode
// on the unbatched path must notice cancellation between decoder steps
// instead of running to completion.
func TestPredictTypedCtxCancellation(t *testing.T) {
	pred, bin := testPredictor(t)
	ld, err := ingest.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	src, err := pred.ParamInput(ld.Decoded.Module, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pred.Param.PredictTypedCtx(ctx, [][]string{src}, []int{3}); err == nil {
		t.Error("canceled context produced predictions")
	}
	// And a live context decodes identically to the ctx-less path.
	got, err := pred.Param.PredictTypedCtx(context.Background(), [][]string{src}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	want := pred.Param.PredictTyped([][]string{src}, []int{3})
	if len(got) != 1 || len(want) != 1 || len(got[0]) != len(want[0]) {
		t.Fatalf("ctx path shape %d differs from plain path %d", len(got[0]), len(want[0]))
	}
	for i := range got[0] {
		if got[0][i].Text != want[0][i].Text {
			t.Errorf("prediction %d: ctx path %q, plain path %q", i, got[0][i].Text, want[0][i].Text)
		}
	}
}
