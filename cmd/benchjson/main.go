// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so CI can archive the perf trajectory as BENCH_*.json
// artifacts and regression tooling never has to re-parse the bench text
// format. It reads the file arguments (stdin when none) and writes to -o
// (stdout when empty):
//
//	go test -run='^$' -bench . -benchtime=3x -count=3 ./... | benchjson -o BENCH_ci.json
//
// With -count > 1 every benchmark appears once per run; entries are kept
// in input order so downstream tooling can aggregate (or inspect variance)
// as it sees fit.
//
// With -compare, benchjson becomes the regression gate instead of the
// converter: it diffs the one JSON file argument against the baseline per
// (benchmark, metric) — best-of-count on each side — prints a table, and
// exits non-zero when anything regressed beyond its bound or went missing.
// Time and rate metrics are bound by -tolerance percent; B/op by 5%, and
// allocs/op by 5% and 2 allocations, since allocation counts do not depend
// on the host — unless the baseline's own runs of the metric spread wider
// than that, which leaves it at -tolerance:
//
//	benchjson -compare BENCH_baseline.json -tolerance 20 BENCH_ci.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicfile"
)

// Benchmark is one `Benchmark...` result line.
type Benchmark struct {
	// Pkg is the Go package the benchmark ran in (from the preceding
	// "pkg:" header line).
	Pkg string `json:"pkg,omitempty"`
	// Name is the benchmark name including sub-benchmark path, without
	// the trailing -GOMAXPROCS suffix (which lands in Procs).
	Name  string `json:"name"`
	Procs int    `json:"procs"`
	// Iterations is b.N for this run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value: always "ns/op", plus any b.ReportMetric
	// extras such as "samples/s".
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the whole converted bench report.
type Doc struct {
	Created    string      `json:"created"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parse consumes `go test -bench` output. Header lines (goos/goarch/cpu)
// keep the last value seen; pkg headers scope the benchmark lines that
// follow them.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				b.Pkg = pkg
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	return doc, sc.Err()
}

// parseLine parses one result line:
//
//	BenchmarkName/sub-8   	     300	   4857372 ns/op	    411759 samples/s
//
// i.e. name-procs, b.N, then (value, unit) pairs.
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	name, procs := f[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			procs = p
			name = name[:i]
		}
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	metrics := make(map[string]float64, (len(f)-2)/2)
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		metrics[f[i+1]] = v
	}
	return Benchmark{Name: name, Procs: procs, Iterations: n, Metrics: metrics}, true
}

func run(out string, paths []string) error {
	var r io.Reader = os.Stdin
	if len(paths) > 0 {
		readers := make([]io.Reader, 0, len(paths))
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				return err
			}
			defer f.Close()
			readers = append(readers, f)
		}
		r = io.MultiReader(readers...)
	}
	doc, err := parse(r)
	if err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found in input")
	}
	doc.Created = time.Now().UTC().Format(time.RFC3339)
	write := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	if out == "" {
		return write(os.Stdout)
	}
	return atomicfile.Write(out, write)
}

func main() {
	out := flag.String("o", "", "output JSON file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON file: compare the one JSON file argument against it and exit non-zero on regressions")
	tolerance := flag.Float64("tolerance", 20, "with -compare, allowed regression in percent of time and rate metrics, and of allocation metrics whose baseline runs disagree (the others have a fixed 5% bound)")
	flag.Parse()
	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintf(os.Stderr, "benchjson: -compare takes exactly one JSON file argument, got %d\n", flag.NArg())
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, *compare, flag.Arg(0), *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*out, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
