package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// figureGoldenUpdate rewrites the figure goldens from the current
// implementation:
//
//	go test -run TestFigureGoldens -figure-golden-update ./internal/experiments/
//
// A figure's bytes moving is a behaviour change, never a refactor.
var figureGoldenUpdate = flag.Bool("figure-golden-update", false, "rewrite testdata/figure_goldens.json from the current implementation")

var figureGoldenPath = filepath.Join("testdata", "figure_goldens.json")

// TestFigureGoldens pins every registered figure's CSV bytes at a small
// scale: the SHA-256 of Result.String() for each IDs() entry at Scale 0.01,
// Seed 1, one worker.
func TestFigureGoldens(t *testing.T) {
	got := map[string]string{}
	for _, id := range IDs() {
		res, err := Run(context.Background(), id, RunOptions{Scale: 0.01, Seed: 1, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256([]byte(res.String()))
		got[id] = hex.EncodeToString(sum[:])
	}
	if *figureGoldenUpdate {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(figureGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(figureGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (run with -figure-golden-update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for id, sum := range got {
		if want[id] == "" {
			t.Errorf("%s: no golden recorded", id)
		} else if sum != want[id] {
			t.Errorf("%s: CSV hash %s differs from golden %s", id, sum, want[id])
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("golden %q names no registered figure", id)
		}
	}
}
