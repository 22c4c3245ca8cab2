package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	sm "subgraphmatching"
	"subgraphmatching/internal/testutil"
)

func writeGraphs(t *testing.T) (qPath, gPath string) {
	t.Helper()
	dir := t.TempDir()
	qPath = filepath.Join(dir, "q.graph")
	gPath = filepath.Join(dir, "g.graph")
	if err := sm.SaveGraph(qPath, testutil.PaperQuery()); err != nil {
		t.Fatal(err)
	}
	if err := sm.SaveGraph(gPath, testutil.PaperData()); err != nil {
		t.Fatal(err)
	}
	return qPath, gPath
}

func TestRunPaperExample(t *testing.T) {
	qPath, gPath := writeGraphs(t)
	// Suppress stdout noise by pointing it at a pipe we discard.
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old }()

	for _, algo := range []string{"Optimized", "DPiso", "GLW"} {
		if err := run(context.Background(), qPath, gPath, algo, 1000, time.Minute, 2, 2, "adaptive", true, true, true, false, false, true); err != nil {
			t.Errorf("run with %s: %v", algo, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	qPath, gPath := writeGraphs(t)
	cases := []struct {
		name       string
		q, g, algo string
	}{
		{"missing q", "", gPath, "Optimized"},
		{"missing g", qPath, "", "Optimized"},
		{"bad algo", qPath, gPath, "nope"},
		{"q not found", qPath + ".missing", gPath, "Optimized"},
		{"g not found", qPath, gPath + ".missing", "Optimized"},
	}
	for _, c := range cases {
		if err := run(context.Background(), c.q, c.g, c.algo, 0, 0, 0, 1, "adaptive", false, false, false, false, false, false); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := run(context.Background(), qPath, gPath, "Optimized", 0, 0, 0, 1, "simd", false, false, false, false, false, false); err == nil {
		t.Error("bad kernel policy: expected error")
	}
}

// TestRemovedFlagsRejected: -schedule and -split selected baselines that
// left with their code paths, and -workers a preprocessing degree apart
// from -parallel; the flag package must refuse them rather than smatch
// accept and ignore them. The test re-executes its own
// binary as smatch, since flag.Parse exits the process.
func TestRemovedFlagsRejected(t *testing.T) {
	if args := os.Getenv("SMATCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"smatch"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-schedule steal", "-split cost", "-workers 2"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedFlagsRejected$")
		cmd.Env = append(os.Environ(), "SMATCH_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Errorf("smatch %s: err = %v, want a non-zero exit\n%s", args, err, out)
		}
		want := "flag provided but not defined: " + strings.Fields(args)[0]
		if !strings.Contains(string(out), want) {
			t.Errorf("smatch %s: output lacks %q:\n%s", args, want, out)
		}
	}
}

func TestRunModes(t *testing.T) {
	qPath, gPath := writeGraphs(t)
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old }()

	// Homomorphism mode.
	if err := run(context.Background(), qPath, gPath, "Optimized", 100, time.Minute, 0, 1, "adaptive", false, false, false, true, false, false); err != nil {
		t.Errorf("hom mode: %v", err)
	}
	// Symmetry breaking.
	if err := run(context.Background(), qPath, gPath, "GQL", 100, time.Minute, 0, 1, "adaptive", false, false, false, false, true, false); err != nil {
		t.Errorf("sym mode: %v", err)
	}
	// Homomorphism routed away from an external engine.
	if err := run(context.Background(), qPath, gPath, "GLW", 100, time.Minute, 0, 1, "adaptive", false, false, false, true, false, false); err != nil {
		t.Errorf("hom with GLW preset: %v", err)
	}
}

func TestRunBatch(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old }()

	dir := t.TempDir()
	qDir := filepath.Join(dir, "queries")
	if err := os.MkdirAll(qDir, 0o755); err != nil {
		t.Fatal(err)
	}
	gPath := filepath.Join(dir, "g.graph")
	if err := sm.SaveGraph(gPath, testutil.PaperData()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sm.SaveGraph(filepath.Join(qDir, "q_"+string(rune('0'+i))+".graph"), testutil.PaperQuery()); err != nil {
			t.Fatal(err)
		}
	}
	csvPath := filepath.Join(dir, "out.csv")
	if err := runBatch(context.Background(), qDir, gPath, "Optimized", 1000, time.Minute, csvPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := len(data)
	if lines == 0 {
		t.Fatal("empty CSV")
	}
	// Batch errors.
	if err := runBatch(context.Background(), qDir, "", "Optimized", 0, 0, ""); err == nil {
		t.Error("expected error for missing data path")
	}
	if err := runBatch(context.Background(), qDir, gPath, "nope", 0, 0, ""); err == nil {
		t.Error("expected error for bad algorithm")
	}
	if err := runBatch(context.Background(), filepath.Join(dir, "missing"), gPath, "RI", 0, 0, ""); err == nil {
		t.Error("expected error for missing query dir")
	}
}
