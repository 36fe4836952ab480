package main

// The -compare mode: diff two bench JSON documents per (benchmark, metric)
// and fail on regressions beyond a bound. This is the CI gate that keeps
// BENCH_baseline.json an enforced floor instead of an artifact. The bound
// depends on the unit: time and rate metrics carry host noise and get the
// -tolerance percentage; allocation metrics do not depend on the host and
// get a tight fixed bound (allocBound, plus allocSlack for allocs/op) —
// unless the baseline's own runs of the metric already spread wider than
// that bound, as a benchmark whose allocations follow the goroutine
// schedule does; such a metric keeps -tolerance.
//
// With -count > 1 each benchmark appears once per run in a document;
// compare first aggregates to the per-metric best value (minimum for
// time-like metrics, maximum for rates) — the best run is the least noisy
// estimate of what the code can do, so one slow outlier among five runs
// never fails the gate.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// higherBetter reports the improvement direction of a metric unit: rates
// ("samples/s", "MB/s") improve upward, everything else ("ns/op", "B/op",
// "allocs/op", "ms/open", ...) improves downward.
func higherBetter(unit string) bool { return strings.HasSuffix(unit, "/s") }

// allocBound is the regression bound, in percent, of the allocation
// metrics B/op and allocs/op, whatever -tolerance says.
const allocBound = 5.0

// allocSlack is the absolute allowance of allocs/op on top of allocBound,
// so a count of a few dozen does not fail on one or two stray allocations.
const allocSlack = 2.0

// isAlloc reports whether unit is an allocation metric.
func isAlloc(unit string) bool { return unit == "B/op" || unit == "allocs/op" }

// beyondAlloc reports whether an allocation metric moving from old to new,
// by worse percent in the bad direction, exceeds the tight bound.
func beyondAlloc(unit string, old, new, worse float64) bool {
	if unit == "allocs/op" && math.Abs(new-old) <= allocSlack {
		return false
	}
	return worse > allocBound
}

// growth returns the percent change from old to new; from zero, any rise
// is unbounded.
func growth(old, new float64) float64 {
	switch {
	case old != 0:
		return (new - old) / old * 100
	case new > 0:
		return math.Inf(1)
	}
	return 0
}

// steady reports, per (benchmark, allocation metric), whether the
// document's runs agree within the tight bound, so that it can tell a
// regression from run-to-run variation.
func steady(doc *Doc) map[benchKey]map[string]bool {
	span := make(map[benchKey]map[string][2]float64) // lowest and highest run
	for _, b := range doc.Benchmarks {
		key := benchKey{b.Pkg, b.Name}
		for unit, v := range b.Metrics {
			if !isAlloc(unit) {
				continue
			}
			if span[key] == nil {
				span[key] = make(map[string][2]float64)
			}
			s, ok := span[key][unit]
			if !ok {
				s = [2]float64{v, v}
			}
			span[key][unit] = [2]float64{min(s[0], v), max(s[1], v)}
		}
	}
	out := make(map[benchKey]map[string]bool)
	for key, m := range span {
		out[key] = make(map[string]bool)
		for unit, s := range m {
			out[key][unit] = !beyondAlloc(unit, s[0], s[1], growth(s[0], s[1]))
		}
	}
	return out
}

// benchKey identifies one logical benchmark across documents.
type benchKey struct {
	Pkg  string
	Name string
}

func (k benchKey) String() string {
	if k.Pkg == "" {
		return k.Name
	}
	return k.Pkg + "." + k.Name
}

// aggregate folds a document's runs into per-(benchmark, metric) best
// values: min for lower-is-better units, max for rates.
func aggregate(doc *Doc) map[benchKey]map[string]float64 {
	out := make(map[benchKey]map[string]float64)
	for _, b := range doc.Benchmarks {
		key := benchKey{b.Pkg, b.Name}
		m := out[key]
		if m == nil {
			m = make(map[string]float64)
			out[key] = m
		}
		for unit, v := range b.Metrics {
			prev, ok := m[unit]
			if !ok || (higherBetter(unit) && v > prev) || (!higherBetter(unit) && v < prev) {
				m[unit] = v
			}
		}
	}
	return out
}

// Comparison statuses, from worst to best.
const (
	statusRegression = "REGRESSION"
	statusMissing    = "MISSING"
	statusOK         = "ok"
	statusImproved   = "improved"
	statusNew        = "new"
)

// diff is one (benchmark, metric) comparison row.
type diff struct {
	Bench  benchKey
	Unit   string
	Old    float64
	New    float64
	Delta  float64 // percent change relative to Old; NaN-free (0 when absent)
	Status string
}

// failed reports whether this row should fail the gate.
func (d diff) failed() bool { return d.Status == statusRegression || d.Status == statusMissing }

// compareDocs diffs new against old. Every (benchmark, metric) of old must
// be present in new and no worse than its bound: the tight allocation bound
// for an allocation metric that old's runs agree on, tolerance percent for
// everything else. Entries only in new are reported as informational.
func compareDocs(oldDoc, newDoc *Doc, tolerance float64) []diff {
	oldAgg, newAgg := aggregate(oldDoc), aggregate(newDoc)
	tight := steady(oldDoc)
	var out []diff
	for key, oldMetrics := range oldAgg {
		newMetrics := newAgg[key]
		for unit, ov := range oldMetrics {
			d := diff{Bench: key, Unit: unit, Old: ov}
			nv, ok := newMetrics[unit]
			if !ok {
				d.Status = statusMissing
				out = append(out, d)
				continue
			}
			d.New = nv
			worse := growth(ov, nv) // how far new drifted in the bad direction
			if ov != 0 {
				d.Delta = worse
			}
			if higherBetter(unit) {
				worse = -worse
			}
			beyond := func(worse float64) bool { return worse > tolerance }
			if tight[key][unit] {
				beyond = func(worse float64) bool { return beyondAlloc(unit, ov, nv, worse) }
			}
			switch {
			case beyond(worse):
				d.Status = statusRegression
			case beyond(-worse):
				d.Status = statusImproved
			default:
				d.Status = statusOK
			}
			out = append(out, d)
		}
	}
	for key, newMetrics := range newAgg {
		oldMetrics := oldAgg[key]
		for unit, nv := range newMetrics {
			if _, ok := oldMetrics[unit]; !ok {
				out = append(out, diff{Bench: key, Unit: unit, New: nv, Status: statusNew})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench.String() < out[j].Bench.String()
		}
		return out[i].Unit < out[j].Unit
	})
	return out
}

// loadDoc reads one bench JSON document written by this tool.
func loadDoc(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in document", path)
	}
	return &doc, nil
}

// writeDiffs renders the comparison table.
func writeDiffs(w io.Writer, diffs []diff, tolerance float64) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tmetric\told\tnew\tdelta\tstatus\n")
	for _, d := range diffs {
		oldS, newS, deltaS := fmtVal(d.Old), fmtVal(d.New), fmt.Sprintf("%+.1f%%", d.Delta)
		switch d.Status {
		case statusMissing:
			newS, deltaS = "-", "-"
		case statusNew:
			oldS, deltaS = "-", "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", d.Bench, d.Unit, oldS, newS, deltaS, d.Status)
	}
	tw.Flush()
	fmt.Fprintf(w, "\nbounds: B/op %.0f%%, allocs/op %.0f%% and %.0f allocs where the baseline's runs agree within that; everything else %.0f%% (best-of-count per metric; rates improve upward, everything else downward)\n",
		allocBound, allocBound, allocSlack, tolerance)
}

func fmtVal(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}

// runCompare is the -compare entry point: load both documents, diff, print
// the table, and fail when any row regressed or went missing.
func runCompare(w io.Writer, oldPath, newPath string, tolerance float64) error {
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		return err
	}
	diffs := compareDocs(oldDoc, newDoc, tolerance)
	writeDiffs(w, diffs, tolerance)
	failed := 0
	for _, d := range diffs {
		if d.failed() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d (benchmark, metric) pair(s) regressed beyond their bound or went missing vs %s — if a benchmark was renamed or intentionally changed, refresh the baseline (make bench-baseline)", failed, oldPath)
	}
	return nil
}
