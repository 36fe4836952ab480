// Command bench is motivo's end-to-end benchmark. One invocation sets up
// one workload from a seed, measures it for a fixed time, checks that
// every output it saw is correct, and prints one line per metric followed
// by a JSON summary as the last line of standard output:
//
//	bench --workload serve-sample --seed 1 --seconds 30 --trace 0
//
// Every input graph is a fixed dataset generated with internal/gen; the
// seed draws the colorings and the requests. Graphs are written as edge
// lists and read back through graph.Open: the program under test sees
// only files. Load comes from this process alone and never uses more
// than two concurrent connections; builds and queries run one at a time on
// one worker. With --trace 1 the run also replays its requests down the
// layer ladder and reports per-layer metrics instead of end-to-end ones;
// spans.json and a runtime/trace file go to --trace-dir. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/trace"
	"strings"
	"time"
)

// options configure one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// toy shrinks every input and sampling budget so the whole benchmark
	// runs in seconds; the smoke test uses it.
	toy bool
}

// size picks the real or the toy value of a workload parameter.
func (o options) size(real, toy int) int {
	if o.toy {
		return toy
	}
	return real
}

// Concurrency of the load this process generates, kept within the two
// cores of the machine the benchmark was sized on: the closed loops run
// one operation at a time with one build or sampling worker, leaving the
// other core to the Go runtime and the server, and the open loop sends
// over two connections. Two busy threads on two shared cores measured the
// host's scheduler more than the program.
const (
	tenantConns  = 2
	buildWorkers = 1
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// fixture is one set-up workload, ready to measure.
type fixture interface {
	// measure runs the workload's traffic for d and returns what it saw.
	measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error)
	// check verifies the outputs kept by every measure call so far. Each
	// failure is one line; info lines report what was checked.
	check(ctx context.Context) (failures, info []string)
	// ladder describes what the per-layer replays of a traced run use.
	ladder() *ladderInput
	// tableBytes is the size of the table files the workload builds or
	// serves.
	tableBytes() int64
	close()
}

// workload is one input set and traffic mix.
type workload struct {
	name string
	// tail is the percentile latency_tail_ms is reported at when the run
	// has enough operations for it (see tailPercentile).
	tail  float64
	setup func(ctx context.Context, o options, dir string) (fixture, error)
}

var workloads = []workload{
	{"build", 75, setupBuild},
	{"serve-sample", 95, setupServeSample},
	{"serve-tenants", 95, setupServeTenants},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// metric is one reported value.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON summary printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload to run: build, serve-sample or serve-tenants")
	flag.Int64Var(&o.seed, "seed", 1, "seed the colorings and requests are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&traced, "trace", 0, "1 = traced run: report per-layer metrics and write spans.json and trace.out")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory traced runs write into")
	flag.Parse()
	o.trace = traced == 1
	if flag.NArg() > 0 || (traced != 0 && traced != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]")
		os.Exit(2)
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and prints its report to out, the JSON
// summary last.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp("", "motivo-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var (
		fx     fixture
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if fx != nil {
			fx.close()
		}
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if fx, err = w.setup(ctx, o, dir); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fx.close()

	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2 // an untraced and a traced phase share the run's time
	}
	ph, err := measured(ctx, fx, d, nil)
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(w, ph, setups, fx)
	q1, q2, q3 := quartiles(millis(ph.lat))
	fmt.Fprintf(out, "%s %d of %d operations completed; latency quartiles %.4g / %.4g / %.4g ms; latency_tail_ms is p%g\n",
		w.name, len(ph.lat), ph.attempted, q1, q2, q3, tailPercentile(len(ph.lat), w.tail))
	for _, k := range byKind(ph) {
		fmt.Fprintf(out, "%s %s\n", w.name, k)
	}
	res := &result{Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	report := e2e
	if o.trace {
		layers, tph, err := tracedRun(ctx, o, w, fx, d)
		if err != nil {
			return nil, err
		}
		res.Attempted += tph.attempted
		res.Failed += tph.failed
		e2eTraced := endToEnd(w, tph, setups, fx)
		for i, m := range e2e {
			fmt.Fprintf(out, "%s overhead %s untraced %.4g traced %.4g %s\n", w.name, m.Name, m.Value, e2eTraced[i].Value, m.Unit)
		}
		report = layers
	}

	failures, info := fx.check(ctx)
	for _, l := range info {
		fmt.Fprintf(out, "%s %s\n", w.name, l)
	}
	for _, f := range failures {
		fmt.Fprintf(out, "%s CHECK FAILED: %s\n", w.name, f)
	}
	res.Failed += len(failures)
	res.Correct = len(failures) == 0 && res.Failed == 0 && res.Attempted > 0
	for _, m := range report {
		fmt.Fprintf(out, "%s %s %.6g %s\n", w.name, m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = m
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", b)
	return res, nil
}

// heapWindow is the window the heap peak of a serving phase is taken
// over; peak_heap_mib is the median of the windows' peaks, so a lone
// garbage spike does not decide it.
const heapWindow = time.Second

// measured runs one measured phase with the heap sampled throughout.
func measured(ctx context.Context, fx fixture, d time.Duration, tr *tracer) (*phase, error) {
	runtime.GC()
	base := heapNow()
	hp := startHeapPeak(heapWindow)
	ph, err := fx.measure(ctx, d, tr)
	peaks := hp.stop(base)
	if err != nil {
		return nil, err
	}
	if len(ph.peaks) == 0 {
		ph.peaks = peaks
	}
	if len(ph.lat) == 0 {
		return nil, errors.New("no operation completed in the measured phase")
	}
	return ph, nil
}

// tracedRun measures the fixture again with spans on, replays its
// requests down the layer ladder, and writes spans.json and trace.out.
func tracedRun(ctx context.Context, o options, w workload, fx fixture, d time.Duration) ([]metric, *phase, error) {
	dir := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	f, err := os.Create(filepath.Join(dir, "trace.out"))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if err := trace.Start(f); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	ph, err := measured(ctx, fx, d, tr)
	if err != nil {
		trace.Stop()
		return nil, nil, err
	}
	layers, err := ladder(ctx, fx.ladder(), ph, tr)
	trace.Stop()
	if err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	return layers, ph, tr.writeSpans(dir)
}

const mib = 1 << 20

// endToEnd computes the end-to-end metrics of one measured phase. Every
// workload reports the same set; what an operation is depends on the
// workload (a build, an HTTP request or an engine query).
func endToEnd(w workload, ph *phase, setups []float64, fx fixture) []metric {
	lat := millis(ph.lat)
	peaks := make([]float64, len(ph.peaks))
	for i, p := range ph.peaks {
		peaks[i] = float64(p) / mib
	}
	return []metric{
		{"setup_s", median(setups), "s"},
		{"latency_p50_ms", median(lat), "ms"},
		{"latency_tail_ms", percentile(lat, tailPercentile(len(lat), w.tail)), "ms"},
		{"throughput_ops", float64(len(ph.lat)) / ph.wall.Seconds(), "1/s"},
		{"peak_heap_mib", median(peaks), "MiB"},
		{"table_mib", float64(fx.tableBytes()) / mib, "MiB"},
	}
}

// byKind describes the latency of each kind of operation in a phase, one
// line per kind in order of first completion.
func byKind(ph *phase) []string {
	var order []string
	lat := map[string][]float64{}
	for i, k := range ph.kind {
		if lat[k] == nil {
			order = append(order, k)
		}
		lat[k] = append(lat[k], float64(ph.lat[i])/float64(time.Millisecond))
	}
	out := make([]string, len(order))
	for i, k := range order {
		out[i] = fmt.Sprintf("kind %s: %d operations, latency median %.4g ms, p95 %.4g ms", k, len(lat[k]), median(lat[k]), percentile(lat[k], 95))
	}
	return out
}
