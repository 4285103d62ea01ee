// Quickstart reproduces the paper's Figure 1 end to end: it compiles the
// motivating C function to WebAssembly with DWARF, shows the binary and
// the debug info, trains a small SnowWhite model on a synthetic corpus,
// strips the binary, and recovers the parameter's high-level type —
// ideally `pointer primitive float 64`, the paper's Figure 1d.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/dwarf"
	"repro/internal/ingest"
	"repro/internal/typelang"
	"repro/internal/wasm"
)

const source = `
extern int printf(const char *fmt, ...);

double DEFAULT_DENSE = 10.0;
int DEFAULT_AGGRESSIVE = 1;

void amd_control(double Control[]) {
	double alpha;
	int aggressive;
	if (Control != (double *) NULL) {
		alpha = Control[0];
		aggressive = Control[1] != 0;
	} else {
		alpha = DEFAULT_DENSE;
		aggressive = DEFAULT_AGGRESSIVE;
	}
	if (alpha < 0) {
		printf("no rows treated as dense");
	}
	if (aggressive) { printf("aggressive"); }
}
`

func main() {
	log.SetFlags(0)

	// (a) Compile the source (Figure 1a) with debug info, like -g.
	obj, err := cc.Compile(source, cc.Options{FileName: "amd_control.c", Debug: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Figure 1b: compiled WebAssembly ===")
	text, err := wasm.DisassembleFunction(obj.Module, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(text)

	// (c) The DWARF debugging information.
	secs, err := dwarf.Extract(obj.Module)
	if err != nil {
		log.Fatal(err)
	}
	cu, err := dwarf.Read(secs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Figure 1c: DWARF debugging information ===")
	fmt.Println(cu.Dump())

	// (d) The ground-truth high-level type.
	sub := cu.FindAll(dwarf.TagSubprogram)[0]
	param := sub.FindAll(dwarf.TagFormalParameter)[0]
	truth := typelang.FromDWARF(param.TypeRef(), typelang.AllNames())
	fmt.Printf("=== Figure 1d: ground-truth type of %q ===\n%s\n\n", param.Name(), truth)

	// Train a small model (this is the slow part: ~a minute on a laptop).
	cfg := core.DefaultConfig()
	cfg.Corpus.Packages = 60
	cfg.Model.Epochs = 3
	cfg.Split.Valid, cfg.Split.Test = 0.05, 0.05
	fmt.Println("=== Training SnowWhite on a synthetic corpus ===")
	d, err := core.BuildDataset(cfg, func(s string) { fmt.Fprintln(os.Stderr, " ", s) })
	if err != nil {
		log.Fatal(err)
	}
	_, trained := d.RunTask(core.Task{Variant: typelang.VariantLSW}, func(s string) { fmt.Fprintln(os.Stderr, " ", s) })

	// Strip the binary — this is what a reverse engineer would have.
	dwarf.Strip(obj.Module)
	stripped, _, err := wasm.Encode(obj.Module)
	if err != nil {
		log.Fatal(err)
	}
	p := &core.Predictor{Param: trained, Opts: cfg.Extract}
	rep := (&ingest.Ingester{Pred: p, K: 5}).Binary("amd_control.wasm", stripped)
	if rep.Error != "" {
		log.Fatal(rep.Error)
	}
	fmt.Println("\n=== Top-5 predictions for parameter `Control` (stripped binary) ===")
	for i, tp := range rep.Funcs[0].Elements[0].Predictions {
		marker := ""
		if tp.Text == truth.String() {
			marker = "   <- exact match with ground truth"
		}
		fmt.Printf("%d. %s%s\n", i+1, tp.Text, marker)
	}
}
