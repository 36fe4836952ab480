package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bench(name string, metrics map[string]float64) Benchmark {
	return Benchmark{Pkg: "repro", Name: name, Procs: 1, Iterations: 1, Metrics: metrics}
}

func doc(benches ...Benchmark) *Doc {
	return &Doc{Created: "2026-01-01T00:00:00Z", Benchmarks: benches}
}

func statusOf(t *testing.T, diffs []diff, name, unit string) diff {
	t.Helper()
	for _, d := range diffs {
		if d.Bench.Name == name && d.Unit == unit {
			return d
		}
	}
	t.Fatalf("no diff row for (%s, %s) in %+v", name, unit, diffs)
	return diff{}
}

func TestCompareStatuses(t *testing.T) {
	old := doc(
		bench("BenchmarkA", map[string]float64{"ns/op": 1000, "samples/s": 500}),
		bench("BenchmarkGone", map[string]float64{"ns/op": 50}),
	)
	new_ := doc(
		// ns/op +50% (regression beyond 20%), samples/s +50% (improvement).
		bench("BenchmarkA", map[string]float64{"ns/op": 1500, "samples/s": 750}),
		bench("BenchmarkFresh", map[string]float64{"ns/op": 10}),
	)
	diffs := compareDocs(old, new_, 20)

	if d := statusOf(t, diffs, "BenchmarkA", "ns/op"); d.Status != statusRegression {
		t.Errorf("ns/op +50%% should be a regression, got %q", d.Status)
	}
	if d := statusOf(t, diffs, "BenchmarkA", "samples/s"); d.Status != statusImproved {
		t.Errorf("samples/s +50%% should be an improvement, got %q", d.Status)
	}
	if d := statusOf(t, diffs, "BenchmarkGone", "ns/op"); d.Status != statusMissing || !d.failed() {
		t.Errorf("benchmark dropped from new doc should be MISSING and fail, got %q", d.Status)
	}
	if d := statusOf(t, diffs, "BenchmarkFresh", "ns/op"); d.Status != statusNew || d.failed() {
		t.Errorf("benchmark only in new doc should be informational, got %q", d.Status)
	}
}

func TestCompareDirections(t *testing.T) {
	old := doc(bench("BenchmarkB", map[string]float64{"ns/op": 1000, "samples/s": 1000}))
	for _, tc := range []struct {
		unit   string
		newVal float64
		want   string
	}{
		{"ns/op", 1100, statusOK},            // +10% slower, within 20%
		{"ns/op", 1300, statusRegression},    // +30% slower
		{"ns/op", 600, statusImproved},       // -40% faster
		{"samples/s", 900, statusOK},         // -10% rate, within 20%
		{"samples/s", 700, statusRegression}, // -30% rate
		{"samples/s", 1500, statusImproved},  // +50% rate
	} {
		new_ := doc(bench("BenchmarkB", map[string]float64{tc.unit: tc.newVal}))
		// Only compare the single unit under test: build a matching old doc.
		oldOne := doc(bench("BenchmarkB", map[string]float64{tc.unit: old.Benchmarks[0].Metrics[tc.unit]}))
		d := statusOf(t, compareDocs(oldOne, new_, 20), "BenchmarkB", tc.unit)
		if d.Status != tc.want {
			t.Errorf("%s %g -> %g: got %q, want %q", tc.unit, d.Old, tc.newVal, d.Status, tc.want)
		}
	}
}

// TestCompareAllocBounds: allocation metrics fail beyond 5% whatever the
// time tolerance, with 2 allocs of slack on allocs/op; time keeps the
// tolerance.
func TestCompareAllocBounds(t *testing.T) {
	for _, tc := range []struct {
		unit       string
		old, new   float64
		wantStatus string
	}{
		{"allocs/op", 37, 59, statusRegression}, // +59%: far inside a 60% tolerance, still a regression
		{"allocs/op", 37, 39, statusOK},         // +5.4% but only 2 allocs: the slack
		{"allocs/op", 37, 40, statusRegression}, // +8.1% and 3 allocs
		{"allocs/op", 1000, 1049, statusOK},     // +4.9%: inside the bound
		{"allocs/op", 1000, 1051, statusRegression},
		{"allocs/op", 0, 3, statusRegression}, // from zero, beyond the slack
		{"allocs/op", 1402, 50, statusImproved},
		{"B/op", 1000, 1060, statusRegression}, // +6%
		{"B/op", 1000, 1040, statusOK},
		{"B/op", 0, 8, statusRegression},
		{"ns/op", 1000, 1500, statusOK},            // +50%: time keeps the 60% tolerance
		{"ns/op", 1000, 1700, statusRegression},    // +70%
		{"samples/s", 1000, 500, statusOK},         // -50% rate
		{"samples/s", 1000, 300, statusRegression}, // -70% rate
	} {
		old := doc(bench("BenchmarkF", map[string]float64{tc.unit: tc.old}))
		new_ := doc(bench("BenchmarkF", map[string]float64{tc.unit: tc.new}))
		if d := statusOf(t, compareDocs(old, new_, 60), "BenchmarkF", tc.unit); d.Status != tc.wantStatus {
			t.Errorf("%s %g -> %g at tolerance 60: got %q, want %q", tc.unit, tc.old, tc.new, d.Status, tc.wantStatus)
		}
	}
}

// TestCompareUnsteadyAllocsKeepTolerance: an allocation metric whose
// baseline runs already disagree by more than the tight bound (a
// two-worker build's counts follow the schedule) is held to the time
// tolerance; one whose runs agree keeps the tight bound.
func TestCompareUnsteadyAllocsKeepTolerance(t *testing.T) {
	old := doc(
		bench("BenchmarkG", map[string]float64{"allocs/op": 85000, "B/op": 8.4e6}),
		bench("BenchmarkG", map[string]float64{"allocs/op": 101000, "B/op": 1.0e7}),
		bench("BenchmarkH", map[string]float64{"allocs/op": 37, "B/op": 1000}),
		bench("BenchmarkH", map[string]float64{"allocs/op": 38, "B/op": 1010}),
	)
	for _, tc := range []struct {
		name, unit string
		new        float64
		want       string
	}{
		{"BenchmarkG", "allocs/op", 95000, statusOK}, // +11.8% over the best run
		{"BenchmarkG", "B/op", 9.5e6, statusOK},
		{"BenchmarkG", "allocs/op", 150000, statusRegression}, // +76%
		{"BenchmarkH", "allocs/op", 40, statusRegression},
		{"BenchmarkH", "B/op", 1060, statusRegression},
	} {
		new_ := doc(bench(tc.name, map[string]float64{tc.unit: tc.new}))
		if d := statusOf(t, compareDocs(old, new_, 60), tc.name, tc.unit); d.Status != tc.want {
			t.Errorf("%s %s -> %g: got %q, want %q", tc.name, tc.unit, tc.new, d.Status, tc.want)
		}
	}
}

func TestCompareMissingMetricFails(t *testing.T) {
	old := doc(bench("BenchmarkC", map[string]float64{"ns/op": 100, "ms/open": 2}))
	new_ := doc(bench("BenchmarkC", map[string]float64{"ns/op": 100}))
	d := statusOf(t, compareDocs(old, new_, 20), "BenchmarkC", "ms/open")
	if d.Status != statusMissing || !d.failed() {
		t.Errorf("metric dropped from new doc should be MISSING and fail, got %q", d.Status)
	}
}

func TestAggregateBestOfCount(t *testing.T) {
	// Three -count runs: the gate must take min of time-like metrics and
	// max of rates, so one noisy run can't fail the comparison.
	d := doc(
		bench("BenchmarkD", map[string]float64{"ns/op": 120, "samples/s": 480}),
		bench("BenchmarkD", map[string]float64{"ns/op": 100, "samples/s": 500}),
		bench("BenchmarkD", map[string]float64{"ns/op": 300, "samples/s": 200}),
	)
	agg := aggregate(d)
	m := agg[benchKey{"repro", "BenchmarkD"}]
	if m["ns/op"] != 100 {
		t.Errorf("ns/op best-of-count = %g, want 100 (min)", m["ns/op"])
	}
	if m["samples/s"] != 500 {
		t.Errorf("samples/s best-of-count = %g, want 500 (max)", m["samples/s"])
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, d *Doc) string {
		t.Helper()
		path := filepath.Join(dir, name)
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", doc(bench("BenchmarkE", map[string]float64{"ns/op": 1000})))

	var out strings.Builder
	good := write("good.json", doc(bench("BenchmarkE", map[string]float64{"ns/op": 1100})))
	if err := runCompare(&out, old, good, 20); err != nil {
		t.Fatalf("within-tolerance compare failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("table should contain an ok row:\n%s", out.String())
	}

	out.Reset()
	bad := write("bad.json", doc(bench("BenchmarkE", map[string]float64{"ns/op": 2000})))
	err := runCompare(&out, old, bad, 20)
	if err == nil {
		t.Fatalf("2x regression must fail the gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "regressed") || !strings.Contains(out.String(), statusRegression) {
		t.Errorf("failure should name the regression:\nerr: %v\ntable:\n%s", err, out.String())
	}
}
