package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from this run")

// goldenDir holds one <experiment>.txt per experiment: the full text
// run prints for it at seed 1.
const goldenDir = "../../testdata/golden/dvfsbench"

// TestGolden pins dvfsbench's output at seed 1. Each experiment runs
// alone, on a fresh suite, and must print exactly its golden file;
// together the files are `dvfsbench -exp all`. A change that moves an
// output on purpose regenerates the files with `go test
// ./cmd/dvfsbench -run TestGolden -update` (or `make golden UPDATE=1`)
// in the same diff, so review sees which lines moved.
func TestGolden(t *testing.T) {
	exps := order
	if raceEnabled {
		// The whole matrix would take minutes under the race detector.
		// These two run the simulator's multi-task and predictor
		// placement paths.
		exps = []string{"multitask", "placement"}
	}
	for _, e := range exps {
		t.Run(e, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, 1, []string{e}, ""); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(goldenDir, e+".txt")
			if *update {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate it with -update)", err)
			}
			if bytes.Equal(buf.Bytes(), want) {
				return
			}
			got, golden := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < max(len(got), len(golden)); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(golden) {
					w = golden[i]
				}
				if g != w {
					t.Errorf("%s:%d:\n got    %q\n golden %q", path, i+1, g, w)
				}
			}
		})
	}
}
