package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Table-driven golden tests over the CLI's flag validation and error
// surfaces: every command rejects bad input with a stable, descriptive
// message instead of exiting or silently misbehaving. The flag sets use
// flag.ContinueOnError, so parse failures come back as ordinary errors and
// are testable here.

// writeTestGraph writes a small edge list and returns its path.
func writeTestGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	var b strings.Builder
	// A 12-node wheel-ish graph: enough structure for k=4 counts.
	for i := 1; i < 12; i++ {
		b.WriteString("0 ")
		b.WriteString(itoa(i))
		b.WriteString("\n")
		b.WriteString(itoa(i))
		b.WriteString(" ")
		b.WriteString(itoa(i%11 + 1))
		b.WriteString("\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	w.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

func TestCommandErrorMessages(t *testing.T) {
	graphPath := writeTestGraph(t)
	tblPath := filepath.Join(t.TempDir(), "g.tbl")
	if err := cmdBuild([]string{"-i", graphPath, "-k", "4", "-o", tblPath}); err != nil {
		t.Fatalf("fixture build failed: %v", err)
	}

	cases := []struct {
		name string
		run  func([]string) error
		args []string
		want string // substring of the returned error; "" = must succeed
	}{
		{"gen/unknown-type", cmdGen, []string{"-type", "zipf"}, `unknown generator "zipf"`},
		{"gen/bad-flag", cmdGen, []string{"-nope"}, "flag provided but not defined"},

		{"build/missing-input", cmdBuild, []string{"-k", "4"}, "build: -i is required"},
		{"build/k-too-small", cmdBuild, []string{"-i", graphPath, "-k", "0"}, "out of range"},
		{"build/k-one", cmdBuild, []string{"-i", graphPath, "-k", "1"}, "out of range [2,11]"},
		{"build/k-too-large", cmdBuild, []string{"-i", graphPath, "-k", "99"}, "out of range [2,11]"},
		{"build/bad-lambda", cmdBuild, []string{"-i", graphPath, "-k", "4", "-lambda", "9"}, "lambda"},
		{"build/missing-file", cmdBuild, []string{"-i", "/definitely/not/here"}, "no such file"},

		{"count/missing-input", cmdCount, []string{}, "count: -i is required"},
		{"count/bad-strategy", cmdCount, []string{"-i", graphPath, "-strategy", "magic"}, `unknown strategy "magic"`},
		{"count/bad-cover", cmdCount, []string{"-i", graphPath, "-cover-threshold", "0"}, "cover threshold must be ≥ 1"},
		{"count/negative-workers", cmdCount, []string{"-i", graphPath, "-sample-workers", "-2"}, "sample workers must be in [0, 1024]"},
		{"count/huge-workers", cmdCount, []string{"-i", graphPath, "-sample-workers", "5000"}, "sample workers must be in [0, 1024]"},
		{"count/table-vs-colorings", cmdCount, []string{"-i", graphPath, "-table", tblPath, "-colorings", "3"}, "-colorings 3 is incompatible"},
		{"count/table-vs-lambda", cmdCount, []string{"-i", graphPath, "-table", tblPath, "-lambda", "1.5"}, "-lambda has no effect with -table"},
		{"count/table-vs-spill", cmdCount, []string{"-i", graphPath, "-table", tblPath, "-spill"}, "-spill is a build-phase option"},
		{"count/table-vs-materialize", cmdCount, []string{"-i", graphPath, "-table", tblPath, "-smart-stars=false"}, "-smart-stars is a build-phase option"},
		{"count/bad-flag-value", cmdCount, []string{"-i", graphPath, "-samples", "lots"}, "invalid value"},
		{"count/bad-map-mode", cmdCount, []string{"-i", graphPath, "-table", tblPath, "-map", "sometimes"}, `unknown map mode "sometimes"`},
		{"count/wrong-k-for-table", cmdCount, []string{"-i", graphPath, "-table", tblPath, "-k", "5", "-samples", "10"}, "built for k=4, run wants k=5"},

		{"serve/missing-flags", cmdServe, []string{}, "serve: -i and -table are required"},
		{"serve/missing-table", cmdServe, []string{"-i", graphPath}, "serve: -i and -table are required"},
		{"serve/graph-no-equals", cmdServe, []string{"-graph", "just-a-name"}, "want name=graph.txt:table.tbl"},
		{"serve/graph-no-colon", cmdServe, []string{"-graph", "er=graph.txt"}, "want name=graph.txt:table.tbl"},
		{"serve/graph-empty-name", cmdServe, []string{"-graph", "=g.txt:t.tbl"}, "want name=graph.txt:table.tbl"},
		{"serve/graph-duplicate", cmdServe, []string{"-graph", "er=" + graphPath + ":" + tblPath, "-graph", "er=" + graphPath + ":" + tblPath}, `duplicate graph name "er"`},
		{"serve/negative-cache", cmdServe, []string{"-graph", "er=" + graphPath + ":" + tblPath, "-cache-size", "-1"}, "must be ≥ 0"},
		{"serve/bad-map-mode", cmdServe, []string{"-graph", "er=" + graphPath + ":" + tblPath, "-map", "maybe"}, `unknown map mode "maybe"`},
		{"serve/missing-graph-file", cmdServe, []string{"-graph", "er=/definitely/not/here:" + tblPath}, `graph "er"`},

		{"exact/missing-input", cmdExact, []string{}, "exact: -i is required"},

		{"convert/missing-flags", cmdConvert, []string{}, "convert: -i and -o are required"},
		{"convert/missing-file", cmdConvert, []string{"-i", "/definitely/not/here", "-o", filepath.Join(t.TempDir(), "g.mvg")}, "no such file"},
		{"build/negative-budget", cmdBuild, []string{"-i", graphPath, "-k", "4", "-mem-budget", "-1"}, "-mem-budget must be ≥ 0"},
		{"build/bad-map-graph", cmdBuild, []string{"-i", graphPath, "-k", "4", "-map-graph", "sometimes"}, `unknown open mode "sometimes"`},
		{"build/require-map-on-text", cmdBuild, []string{"-i", graphPath, "-k", "4", "-map-graph", "require"}, "edge lists cannot be mapped"},
		{"count/bad-map-graph", cmdCount, []string{"-i", graphPath, "-map-graph", "never"}, `unknown open mode "never"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := captureStdout(t, func() error { return tc.run(tc.args) })
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got success", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

func TestBuildOutputModes(t *testing.T) {
	graphPath := writeTestGraph(t)
	out, err := captureStdout(t, func() error {
		return cmdBuild([]string{"-i", graphPath, "-k", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "smart stars (star records synthesized)") {
		t.Fatalf("default build does not report smart stars:\n%s", out)
	}
	if !strings.Contains(out, "record hits") || !strings.Contains(out, "neighbor-sum store") {
		t.Fatalf("default build does not report its level caches:\n%s", out)
	}
	out, err = captureStdout(t, func() error {
		return cmdBuild([]string{"-i", graphPath, "-k", "4", "-smart-stars=false"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "materialized (all records stored)") {
		t.Fatalf("-smart-stars=false build does not report materialization:\n%s", out)
	}
}

// TestLegacyTableFallbackPath pins the CLI side of legacy-table support:
// a checked-in MvT3 file (written by an older `motivo build`) is served by
// the default auto map mode via the heap fallback, while -map require
// refuses it.
func TestLegacyTableFallbackPath(t *testing.T) {
	graphPath := filepath.Join("..", "..", "internal", "table", "testdata", "legacy-v3.txt")
	tblPath := filepath.Join("..", "..", "internal", "table", "testdata", "legacy-v3.tbl")
	_, err := captureStdout(t, func() error {
		return cmdCount([]string{"-i", graphPath, "-k", "4", "-table", tblPath, "-map", "require", "-samples", "100"})
	})
	if err == nil || !strings.Contains(err.Error(), "not mappable") {
		t.Fatalf("-map require on a v3 file: want a not-mappable error, got %v", err)
	}
	if _, err := captureStdout(t, func() error {
		return cmdCount([]string{"-i", graphPath, "-k", "4", "-table", tblPath, "-samples", "100"})
	}); err != nil {
		t.Fatalf("-map auto must fall back to the heap loader on a v3 file: %v", err)
	}
}

// TestConvertRoundTrip pins the billion-edge ingest workflow: convert an
// edge list to MvG1 once, then every build/count opens the binary —
// mapped under the default auto mode, and bit-identically under -map-graph
// off. The persisted tables from text and binary inputs must match byte
// for byte.
func TestConvertRoundTrip(t *testing.T) {
	graphPath := writeTestGraph(t)
	dir := t.TempDir()
	mvgPath := filepath.Join(dir, "g.mvg")
	if _, err := captureStdout(t, func() error {
		return cmdConvert([]string{"-i", graphPath, "-o", mvgPath})
	}); err != nil {
		t.Fatal(err)
	}
	tblText := filepath.Join(dir, "text.tbl")
	tblMapped := filepath.Join(dir, "mapped.tbl")
	tblHeap := filepath.Join(dir, "heap.tbl")
	for _, b := range [][]string{
		{"-i", graphPath, "-k", "4", "-o", tblText},
		{"-i", mvgPath, "-k", "4", "-map-graph", "require", "-o", tblMapped},
		{"-i", mvgPath, "-k", "4", "-map-graph", "off", "-o", tblHeap},
	} {
		if _, err := captureStdout(t, func() error { return cmdBuild(b) }); err != nil {
			t.Fatalf("build %v: %v", b, err)
		}
	}
	want, err := os.ReadFile(tblText)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{tblMapped, tblHeap} {
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("table built from %s differs from the text-input build", p)
		}
	}
	if _, err := captureStdout(t, func() error {
		return cmdCount([]string{"-i", mvgPath, "-k", "4", "-table", tblMapped, "-samples", "100"})
	}); err != nil {
		t.Fatalf("count over the converted graph: %v", err)
	}
}

// TestBuildMemBudgetParity pins the CLI bounded-memory path: -mem-budget
// persists a table byte-identical to the unbounded build's.
func TestBuildMemBudgetParity(t *testing.T) {
	graphPath := writeTestGraph(t)
	dir := t.TempDir()
	tblFree, tblBudget := filepath.Join(dir, "free.tbl"), filepath.Join(dir, "budget.tbl")
	if _, err := captureStdout(t, func() error {
		return cmdBuild([]string{"-i", graphPath, "-k", "4", "-o", tblFree})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return cmdBuild([]string{"-i", graphPath, "-k", "4", "-mem-budget", "1048576", "-o", tblBudget})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sharded bounded-memory build") {
		t.Fatalf("-mem-budget build does not report the bounded mode:\n%s", out)
	}
	want, err := os.ReadFile(tblFree)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tblBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("-mem-budget table differs from the unbounded build's")
	}
}

func TestCountAgainstPersistedTable(t *testing.T) {
	graphPath := writeTestGraph(t)
	tblPath := filepath.Join(t.TempDir(), "g.tbl")
	if _, err := captureStdout(t, func() error {
		return cmdBuild([]string{"-i", graphPath, "-k", "4", "-o", tblPath})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return cmdCount([]string{"-i", graphPath, "-k", "4", "-table", tblPath, "-samples", "500", "-top", "3", "-v"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table open", "500 samples", "open time:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("count -table output missing %q:\n%s", want, out)
		}
	}
}
