package core

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/dwarf"
	"repro/internal/split"
	"repro/internal/typelang"
	"repro/internal/wasm"
)

// testConfig returns a config small enough for unit tests (seconds).
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Corpus.Packages = 24
	cfg.Corpus.MinFuncs = 3
	cfg.Corpus.MaxFuncs = 5
	cfg.Model.Hidden = 32
	cfg.Model.Embed = 24
	cfg.Model.Epochs = 2
	cfg.Model.MaxSrcLen = 60
	cfg.BPESrcVocab = 300
	return cfg
}

func buildTestDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := BuildDataset(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildDataset(t *testing.T) {
	var logs []string
	d, err := BuildDataset(testConfig(), func(s string) { logs = append(logs, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Samples) < 100 {
		t.Fatalf("only %d samples", len(d.Samples))
	}
	params, returns := d.Counts()
	if params == 0 || returns == 0 {
		t.Fatalf("params=%d returns=%d", params, returns)
	}
	if params < returns {
		t.Errorf("expected more parameter samples than returns (%d vs %d)", params, returns)
	}
	if d.DedupStats.BinariesBefore <= d.DedupStats.BinariesAfter {
		t.Errorf("dedup removed nothing: %+v", d.DedupStats)
	}
	if len(d.CommonNames) == 0 {
		t.Error("no common names extracted")
	}
	// size_t must be among the common names (appears in ~64% of packages).
	found := false
	for _, n := range d.CommonNames {
		if n.Name == "size_t" {
			found = true
		}
	}
	if !found {
		t.Errorf("size_t missing from common names: %v", d.CommonNames)
	}
	// Every sample's package has a split assignment.
	for _, s := range d.Samples {
		if _, ok := d.Parts[s.Pkg]; !ok {
			t.Fatalf("package %s unassigned", s.Pkg)
		}
	}
	if len(logs) < 4 {
		t.Errorf("progress logs missing: %v", logs)
	}
}

func TestTables(t *testing.T) {
	d := buildTestDataset(t)

	t1 := Table1()
	if !strings.Contains(t1, "SnowWhite") || !strings.Contains(t1, "Eklavya") {
		t.Errorf("Table1:\n%s", t1)
	}

	t2 := d.Table2(10)
	if !strings.Contains(t2, "pointer") {
		t.Errorf("Table2 lacks pointer types:\n%s", t2)
	}

	t3 := d.Table3(8)
	if !strings.Contains(t3, "size_t") {
		t.Errorf("Table3 lacks size_t:\n%s", t3)
	}

	rows := d.Table4()
	if len(rows) != 4 {
		t.Fatalf("Table4 has %d rows", len(rows))
	}
	// Expressiveness ordering: AllNames >= LSW > Simplified > Eklavya.
	if !(rows[0].Unique >= rows[1].Unique && rows[1].Unique > rows[2].Unique && rows[2].Unique > rows[3].Unique) {
		t.Errorf("|L| ordering broken: %+v", rows)
	}
	if rows[3].Unique > 7 {
		t.Errorf("Eklavya has %d types, max 7", rows[3].Unique)
	}
	// Eklavya's distribution is the most skewed (lowest entropy).
	if rows[3].NormEntropy >= rows[1].NormEntropy {
		t.Errorf("entropy ordering broken: Eklavya %.2f vs LSW %.2f", rows[3].NormEntropy, rows[1].NormEntropy)
	}
	if !strings.Contains(FormatTable4(rows), "H/Hmax") {
		t.Error("FormatTable4 header missing")
	}

	s5 := d.Section5Stats()
	if !strings.Contains(s5, "dedup") || !strings.Contains(s5, "split") {
		t.Errorf("Section5Stats:\n%s", s5)
	}
}

func TestRunTaskAndPredictor(t *testing.T) {
	d := buildTestDataset(t)
	paramTask := Task{Variant: typelang.VariantLSW}
	res, trained := d.RunTask(paramTask, nil)
	if res.TestN == 0 || res.TrainN == 0 {
		t.Fatalf("task sizes: train %d test %d", res.TrainN, res.TestN)
	}
	if res.Model.N() != res.TestN {
		t.Errorf("evaluated %d of %d test samples", res.Model.N(), res.TestN)
	}
	if !res.HasBaseline || res.Baseline.N() == 0 {
		t.Error("baseline missing")
	}
	if len(res.ByDepth) == 0 {
		t.Error("no depth buckets for Figure 4")
	}

	retTask := Task{Variant: typelang.VariantLSW, Return: true}
	retRes, retTrained := d.RunTask(retTask, nil)
	if retRes.TestN == 0 {
		t.Fatal("no return test samples")
	}

	// Predictor on a stripped binary.
	obj, err := cc.Compile(`
double first(double *xs, int n) {
	if (xs != NULL && n > 0) { return xs[0]; }
	return 0.0;
}
`, cc.Options{Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := wasm.Encode(obj.Module)
	if err != nil {
		t.Fatal(err)
	}
	p := &Predictor{Param: trained, Return: retTrained, Opts: d.Cfg.Extract}
	m, err := DecodeStripped(bin)
	if err != nil {
		t.Fatal(err)
	}
	if m.Custom(dwarf.SectionInfo) != nil {
		t.Fatal("DecodeStripped left DWARF in the module")
	}
	preds := map[string][]TypePrediction{}
	for _, el := range Elements(m, 0) {
		preds[el.Name] = p.ModelFor(el).PredictTyped([][]string{p.Input(m, 0, el)}, []int{5})[0]
	}
	if len(preds["param0"]) == 0 || len(preds["param1"]) == 0 || len(preds["return"]) == 0 {
		t.Fatalf("predictions missing: %v", preds)
	}
	for _, tp := range preds["param0"] {
		if tp.Text == "" {
			t.Error("empty prediction text")
		}
	}
	// Formatting.
	table5 := FormatTable5([]*TaskResult{res, retRes})
	if !strings.Contains(table5, "Top-1") || !strings.Contains(table5, "Lsw / parameter") {
		t.Errorf("Table5 formatting:\n%s", table5)
	}
	fig4 := FormatFigure4(res, retRes)
	if !strings.Contains(fig4, "Depth") {
		t.Errorf("Figure4 formatting:\n%s", fig4)
	}
}

func TestAblationDropsLowType(t *testing.T) {
	d := buildTestDataset(t)
	normal := d.realize(Task{Variant: typelang.VariantLSW}, split.Test)
	ablated := d.realize(Task{Variant: typelang.VariantLSW, AblateLowType: true}, split.Test)
	if len(normal) != len(ablated) {
		t.Fatalf("sample counts differ: %d vs %d", len(normal), len(ablated))
	}
	for i := range normal {
		if normal[i].src[0] == "<begin>" {
			t.Fatal("normal input lacks low type")
		}
		if ablated[i].src[0] != "<begin>" {
			t.Fatalf("ablated input still has low type: %v", ablated[i].src[:2])
		}
	}
}

func TestTable5TasksList(t *testing.T) {
	tasks := Table5Tasks()
	if len(tasks) != 10 {
		t.Fatalf("%d tasks, want 10", len(tasks))
	}
	if !strings.Contains(tasks[4].Name(), "tlow not given") {
		t.Errorf("task 4 = %s", tasks[4].Name())
	}
	if !strings.Contains(tasks[9].Name(), "return") {
		t.Errorf("task 9 = %s", tasks[9].Name())
	}
}
