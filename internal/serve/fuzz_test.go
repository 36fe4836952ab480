package serve

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzCountRequest drives arbitrary bytes through the /count body decoder.
// The decoder must be total: any input yields either a valid, fully
// validated engine query or an error — never a panic, and never a query
// that violates the invariants the engine relies on (positive budget,
// bounded workers, valid threshold, known strategy).
func FuzzCountRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"strategy":"ags","samples":50000,"seed":7,"top":10}`))
	f.Add([]byte(`{"strategy":"naive","samples":1,"coverThreshold":1000,"sampleWorkers":8}`))
	f.Add([]byte(`{"samples":-5}`))
	f.Add([]byte(`{"unknown":"field"}`))
	f.Add([]byte(`{"strategy":` + strings.Repeat(`[`, 1000) + `}`))
	f.Add([]byte(`{"seed":9223372036854775807}`))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(`{"epsilon":0.5,"maxSamples":100}`))
	f.Add([]byte(`{"samples":1} {}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		q, req, err := decodeCountRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		if req == nil {
			t.Fatal("nil request on success")
		}
		if q.Samples < 1 && !q.PrecisionMode() {
			// A run-to-precision query sizes its own budget (Samples 0).
			t.Fatalf("accepted query with budget %d", q.Samples)
		}
		if q.Strategy != core.Naive && q.Strategy != core.AGS {
			t.Fatalf("accepted unknown strategy %v", q.Strategy)
		}
		if err := core.ValidateSampleWorkers(q.SampleWorkers); err != nil {
			t.Fatalf("accepted bad worker count: %v", err)
		}
		if q.CoverThreshold != 0 {
			if err := core.ValidateCoverThreshold(q.CoverThreshold); err != nil {
				t.Fatalf("accepted bad cover threshold: %v", err)
			}
		}
		if req.Top < 0 {
			t.Fatalf("accepted negative top %d", req.Top)
		}
	})
}
