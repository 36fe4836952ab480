package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestBenchSmoke runs every workload at toy size for about a second, with
// its correctness checks on, untraced and traced, and asks for a passing
// summary carrying every metric. It fails when a change breaks the
// benchmark command rather than the benchmark's numbers.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: w.name, seed: 3, seconds: 1, trace: traced, traceDir: t.TempDir(), toy: true}
				var out bytes.Buffer
				res, err := run(context.Background(), o, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON summary: %v", err)
				}
				want := []string{"setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_ops", "peak_heap_mib", "table_mib"}
				if traced {
					want = []string{"graph.open_ms", "build.first_pass_s", "table.verify_ms", "sample.draw_ns_cold",
						"ags.ns_per_sample", "estimate.naive_us", "core.allocs_per_query", "registry.hit_ms",
						"serve.wire_ms", "loadgen.lag_p99_ms"}
				}
				for _, m := range want {
					if _, ok := last.Metrics[m]; !ok {
						t.Errorf("summary lacks %s", m)
					}
				}
			})
		}
	}
}
