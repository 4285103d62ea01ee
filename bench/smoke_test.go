package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at tiny sizes
// against the repository this module sits in.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server and trains a tiny model")
	}
	build := t.TempDir()
	bin := filepath.Join(build, "snowwhite")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/snowwhite").CombinedOutput(); err != nil {
		t.Fatalf("build server: %v\n%s", err, out)
	}
	for _, trace := range []string{"0", "1"} {
		for _, w := range []string{"ingest", "serve-miss", "serve-hit", "train"} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w, "-seed", "3", "-seconds", "1", "-trace", trace, "-short",
				"-root", "..", "-build", build, "-snowwhite", bin}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var sum struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w, trace, err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !sum.Correct || sum.Attempted < 1 || len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%s: summary %+v\n%s", w, trace, sum, stdout.String())
			}
		}
	}
}
