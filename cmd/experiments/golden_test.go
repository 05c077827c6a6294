package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedResultsReproduce regenerates every figure, ablation and gap
// study with the settings the committed results/ were made with and
// requires each CSV, and the printed tables, to match byte for byte. The
// timesim-*.csv files come from qsim and are not covered here.
func TestCommittedResultsReproduce(t *testing.T) {
	results := filepath.Join("..", "..", "results")
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := run([]string{"-networks", "20", "-seed", "1", "-ablations", "-gaps", "-out", dir}, &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(results, "experiments.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout differs from results/experiments.txt:\n%s", stdout.String())
	}

	committed, err := filepath.Glob(filepath.Join(results, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, path := range committed {
		name := filepath.Base(path)
		if strings.HasPrefix(name, "timesim-") {
			continue
		}
		compared++
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s not regenerated: %v", name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from results/%s:\n%s", name, name, got)
		}
	}
	written, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != compared {
		t.Errorf("run wrote %d CSVs, results/ holds %d outside timesim-*.csv", len(written), compared)
	}
}
