// Reverse-engineer plays through the paper's motivating scenario
// (Section 1): a security engineer receives a stripped third-party
// WebAssembly module — no debug info, no parameter names — and wants to
// understand its exported functions before integrating it. The example
// trains SnowWhite's parameter and return models, then prints a recovered
// signature report for every exported function of the unknown module.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/dwarf"
	"repro/internal/ingest"
	"repro/internal/typelang"
)

// thirdPartyModule simulates the vendor's (unseen) source code. The
// reverse engineer never sees this — only the stripped binary below.
const thirdPartyModule = `
typedef unsigned long size_t;
typedef struct _IO_FILE { int fd; int flags; long pos; } FILE;
extern int fputc(int c, FILE *stream);
extern unsigned long strlen(const char *s);

struct pixel_buf { int w; int h; double *samples; struct pixel_buf *next; char tag; };

double buf_mean(struct pixel_buf *buf) {
	double acc = 0;
	int i;
	if (buf == NULL || buf->samples == NULL) { return 0.0; }
	for (i = 0; i < buf->w * buf->h; i++) { acc += buf->samples[i]; }
	return acc / (double)(buf->w * buf->h);
}

size_t sanitize(char *name) {
	size_t n = 0;
	while (name[n] != 0) {
		if (name[n] == '/') { name[n] = '_'; }
		n = n + 1;
	}
	return n;
}

int dump(struct pixel_buf *buf, FILE *out) {
	int written = 0;
	if (buf == NULL || out == NULL) { return -1; }
	while (buf != NULL) {
		fputc(buf->tag, out);
		written = written + 1;
		buf = buf->next;
	}
	return written;
}

bool is_empty(const char *s) {
	return s == NULL || strlen(s) == 0;
}
`

func main() {
	log.SetFlags(0)
	say := func(s string) { fmt.Fprintln(os.Stderr, " ", s) }

	// The vendor ships a stripped binary: compile and remove all DWARF.
	obj, err := cc.Compile(thirdPartyModule, cc.Options{FileName: "vendor.c", Debug: false})
	if err != nil {
		log.Fatal(err)
	}
	stripped := obj.Binary
	if _, err := dwarf.Extract(obj.Module); err == nil {
		log.Fatal("binary unexpectedly has debug info")
	}
	ld, err := ingest.Load(stripped)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("received stripped module: %d bytes, %d functions\n\n", len(stripped), len(ld.Funcs))

	// Train parameter and return models.
	cfg := core.DefaultConfig()
	cfg.Corpus.Packages = 80
	cfg.Model.Epochs = 3
	cfg.Split.Valid, cfg.Split.Test = 0.05, 0.05
	d, err := core.BuildDataset(cfg, say)
	if err != nil {
		log.Fatal(err)
	}
	say("training parameter model")
	_, paramModel := d.RunTask(core.Task{Variant: typelang.VariantLSW}, say)
	say("training return model")
	_, retModel := d.RunTask(core.Task{Variant: typelang.VariantLSW, Return: true}, say)
	p := &core.Predictor{Param: paramModel, Return: retModel, Opts: cfg.Extract}

	fmt.Println("=== Recovered signatures (top prediction, with alternatives) ===")
	m := ld.Decoded.Module
	for fi, fn := range ld.Funcs {
		name := fn.Name
		sig, err := m.FuncTypeAt(uint32(fi + m.NumImportedFuncs()))
		if err != nil {
			log.Fatal(err)
		}
		preds, err := p.PredictBinary(stripped, fi, 3)
		if err != nil {
			log.Fatal(err)
		}
		var parts []string
		for pi := range sig.Params {
			key := fmt.Sprintf("param%d", pi)
			parts = append(parts, fmt.Sprintf("%s /*%s*/", top(preds[key]), sig.Params[pi]))
		}
		ret := "void"
		if len(sig.Results) > 0 {
			ret = fmt.Sprintf("%s /*%s*/", top(preds["return"]), sig.Results[0])
		}
		fmt.Printf("\n%s %s(%s)\n", ret, name, strings.Join(parts, ", "))
		for key, ps := range preds {
			if len(ps) > 1 {
				var alts []string
				for _, alt := range ps[1:] {
					alts = append(alts, alt.Text)
				}
				fmt.Printf("    %s alternatives: %s\n", key, strings.Join(alts, " | "))
			}
		}
	}
}

func top(preds []core.TypePrediction) string {
	if len(preds) == 0 {
		return "unknown"
	}
	return preds[0].Text
}
