package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestCatalogWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range Catalog() {
		if d.Name == "" || d.Regime == "" || d.MaxK < 4 || d.Gen == nil {
			t.Errorf("dataset %+v malformed", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("duplicate dataset %q", d.Name)
		}
		seen[d.Name] = true
		g := d.Gen()
		if g.NumNodes() == 0 || g.NumEdges() == 0 {
			t.Errorf("dataset %q is empty", d.Name)
		}
	}
	if _, ok := ByName("facebook-s"); !ok {
		t.Error("ByName failed for a known dataset")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName matched a bogus name")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"datasets", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "speedup", "tablesize", "samplerate", "l1", "lollipop"}
	for _, id := range want {
		if Registry[id] == nil {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Registry), len(want))
	}
	if !slices.Equal(paperOrder, want) {
		t.Errorf("All runs %v, want %v", paperOrder, want)
	}
}

func TestDatasetsTableOutput(t *testing.T) {
	var sb strings.Builder
	if err := DatasetsTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, d := range Catalog() {
		if !strings.Contains(out, d.Name) {
			t.Errorf("datasets table missing %q", d.Name)
		}
	}
}

func TestLollipopExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of ESU enumeration")
	}
	var sb strings.Builder
	if err := LollipopLowerBound(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "p_H") || !strings.Contains(out, "sample(path-shape)") {
		t.Errorf("unexpected lollipop output:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := histogram([]float64{-1, -0.9, 0, 0.3, 2})
	for _, frag := range []string{"[≤-1]:1", "(-0.05,0.05]:1", "[>1]:1"} {
		if !strings.Contains(h, frag) {
			t.Errorf("histogram %q missing %q", h, frag)
		}
	}
}

// TestFig10RarestGraphletServed pins the paper's headline AGS result on the
// served path: on the star-dominated graph naive sampling only ever sees
// the star (rarest frequency 1), while AGS tallies graphlets rarer than
// 1e-9 at both k=5 and k=6.
func TestFig10RarestGraphletServed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and samples k=5 and k=6 tables")
	}
	var sb strings.Builder
	if err := Fig10RarestGraphlet(&sb); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "yelp-s" {
			continue
		}
		rows++
		if f[2] != "1" {
			t.Errorf("k=%s: naive rarest frequency %q, want 1", f[1], f[2])
		}
		if ags, err := strconv.ParseFloat(f[3], 64); err != nil || ags >= 1e-9 {
			t.Errorf("k=%s: AGS rarest frequency %q, want below 1e-9", f[1], f[3])
		}
	}
	if rows != 2 {
		t.Fatalf("want rows for k=5 and k=6, got %d:\n%s", rows, sb.String())
	}
}
