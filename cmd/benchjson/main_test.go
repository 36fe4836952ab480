package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig2CheckMergeSuccinct-8   	       3	 123456789 ns/op	        12.3 ns/checkmerge
BenchmarkAGSParallel/workers=8-8    	       9	   4857372 ns/op	    411759 samples/s
BenchmarkAGSParallel/workers=8-8    	       9	   4901222 ns/op	    408090 samples/s
PASS
ok  	repro	12.345s
?   	repro/examples/quickstart	[no test files]
testing: warning: no tests to run
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" {
		t.Errorf("platform headers wrong: %q/%q", doc.Goos, doc.Goarch)
	}
	if !strings.Contains(doc.CPU, "Xeon") {
		t.Errorf("cpu header wrong: %q", doc.CPU)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Pkg != "repro" || b.Name != "BenchmarkFig2CheckMergeSuccinct" || b.Procs != 8 || b.Iterations != 3 {
		t.Errorf("first benchmark parsed wrong: %+v", b)
	}
	if b.Metrics["ns/op"] != 123456789 || b.Metrics["ns/checkmerge"] != 12.3 {
		t.Errorf("metrics parsed wrong: %v", b.Metrics)
	}
	// -count>1 repeats and sub-benchmark names survive verbatim.
	p := doc.Benchmarks[1]
	if p.Name != "BenchmarkAGSParallel/workers=8" || p.Procs != 8 {
		t.Errorf("sub-benchmark parsed wrong: %+v", p)
	}
	if doc.Benchmarks[1].Metrics["samples/s"] == doc.Benchmarks[2].Metrics["samples/s"] {
		t.Error("repeated runs collapsed")
	}
}

// TestRunReplacesOutput: -o replaces the file whole, so a reader that
// opened the old file keeps reading the old bytes, and the path then holds
// the new document.
func TestRunReplacesOutput(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "bench.txt"), filepath.Join(dir, "BENCH_ci.json")
	stale := []byte(strings.Repeat("stale ", 1000))
	if err := os.WriteFile(in, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := run(out, []string{in}); err != nil {
		t.Fatal(err)
	}
	if b, err := io.ReadAll(old); err != nil || !bytes.Equal(b, stale) {
		t.Fatalf("the old file changed under its reader (%d bytes, err %v)", len(b), err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.Benchmarks) != 3 {
		t.Fatalf("output is not the new document (%d benchmarks): %v", len(doc.Benchmarks), err)
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-8",
		"BenchmarkX-8 notanumber 12 ns/op",
		"BenchmarkX-8 3 nan-ish",
		"BenchmarkX-8 3 x ns/op",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

func TestParseLineNoProcsSuffix(t *testing.T) {
	b, ok := parseLine("BenchmarkPlain 100 42.5 ns/op")
	if !ok || b.Name != "BenchmarkPlain" || b.Procs != 1 || b.Metrics["ns/op"] != 42.5 {
		t.Errorf("plain line parsed wrong: %+v ok=%v", b, ok)
	}
}
