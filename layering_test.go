package eend

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestModelLayersDoNotImportObs checks a property of the source: no
// non-test file of the simulated model's layers imports internal/obs. A
// run's counts are the kernel's own tallies, reported in batches by
// sim.Simulator to the counters internal/network hands it, so a layer with
// no registry in reach cannot put a process-wide write back on the event
// path (ARCHITECTURE, "a run writes no process-wide memory per event").
func TestModelLayersDoNotImportObs(t *testing.T) {
	for _, layer := range []string{"geom", "phy", "radio", "mac", "routing", "power", "traffic"} {
		files, err := filepath.Glob(filepath.Join("internal", layer, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no source files (%v)", layer, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"eend/internal/obs"` {
					t.Errorf("%s imports eend/internal/obs", file)
				}
			}
		}
	}
}
