package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/estimate"
	"repro/internal/gen"
	"repro/internal/graphlet"
)

// digestWriter folds the deterministic part of a query result into a
// SHA-256: codes in sorted order, float64 bits, counts and certificates.
// Wall-clock fields are left out.
type digestWriter struct{ h hash.Hash }

func newDigest() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digestWriter) code(c graphlet.Code) { d.u64(c.Hi); d.u64(c.Lo) }

func (d *digestWriter) cert(c *Certificate) {
	if c == nil {
		d.u64(0)
		return
	}
	met := uint64(1)
	if c.Met {
		met = 2
	}
	d.u64(met)
	d.u64(math.Float64bits(c.Eps))
	d.u64(math.Float64bits(c.Delta))
	d.u64(uint64(c.Samples))
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func sortedCodes[V any](m map[graphlet.Code]V) []graphlet.Code {
	codes := make([]graphlet.Code, 0, len(m))
	for c := range m {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i].Less(codes[j]) })
	return codes
}

func countDigest(counts estimate.Counts, samples, covered int, cert *Certificate) string {
	d := newDigest()
	for _, c := range sortedCodes(counts) {
		d.code(c)
		d.u64(math.Float64bits(counts[c]))
	}
	d.u64(uint64(samples))
	d.u64(uint64(covered))
	d.cert(cert)
	return d.sum()
}

func signaturesDigest(res *SignaturesResult) string {
	d := newDigest()
	for _, c := range res.Motifs {
		d.code(c)
	}
	for _, c := range sortedCodes(res.Tallies) {
		d.code(c)
		d.u64(uint64(res.Tallies[c]))
	}
	for _, n := range res.Nodes {
		d.u64(uint64(n.Node))
		d.u64(uint64(n.Total))
		for _, v := range n.Counts {
			d.u64(uint64(v))
		}
	}
	d.u64(uint64(res.Samples))
	d.u64(uint64(res.Covered))
	d.cert(res.Achieved)
	return d.sum()
}

// TestQueryPathGolden pins every query entry point — engine Count and
// Signatures at several worker counts, a precision query, and the
// one-shot Count and Signatures in build and TablePath modes — to
// digests of their estimates, so a refactor of the sampling path must
// reproduce every output bit for bit.
func TestQueryPathGolden(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 17)
	const k, buildSeed = 4, 23
	path := filepath.Join(t.TempDir(), "golden.tbl")
	if _, _, err := BuildTable(g, Config{K: k, Seed: buildSeed}, path); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(g, path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got := make(map[string]string)

	for _, tc := range []struct {
		name string
		q    Query
	}{
		{"engine/naive/w0", Query{Strategy: Naive, Samples: 5000, Seed: 31}},
		{"engine/naive/w3", Query{Strategy: Naive, Samples: 5000, Seed: 31, SampleWorkers: 3}},
		{"engine/ags/w0", Query{Strategy: AGS, Samples: 5000, CoverThreshold: 150, Seed: 31}},
		{"engine/ags/w3", Query{Strategy: AGS, Samples: 5000, CoverThreshold: 150, Seed: 31, SampleWorkers: 3}},
		{"engine/precision", Query{Strategy: AGS, CoverThreshold: 150, Seed: 37, Epsilon: 0.5, Delta: 0.1, MaxSamples: 8000}},
	} {
		res, err := eng.Count(ctx, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[tc.name] = countDigest(res.Counts, res.Samples, res.Covered, res.Achieved)
	}
	for _, tc := range []struct {
		name string
		q    Query
	}{
		{"signatures/naive/w1", Query{Strategy: Naive, Samples: 4000, Seed: 41, SampleWorkers: 1}},
		{"signatures/naive/w4", Query{Strategy: Naive, Samples: 4000, Seed: 41, SampleWorkers: 4}},
		{"signatures/ags/w1", Query{Strategy: AGS, Samples: 4000, CoverThreshold: 150, Seed: 41, SampleWorkers: 1}},
		{"signatures/ags/w4", Query{Strategy: AGS, Samples: 4000, CoverThreshold: 150, Seed: 41, SampleWorkers: 4}},
	} {
		res, err := eng.Signatures(ctx, tc.q, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[tc.name] = signaturesDigest(res)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"oneshot/colorings3", Config{K: k, Colorings: 3, SamplesPerColoring: 3000, Strategy: AGS, CoverThreshold: 150, Seed: 43}},
		{"oneshot/lambda", Config{K: k, Colorings: 1, SamplesPerColoring: 3000, BiasedLambda: 0.2, Seed: 47}},
		{"oneshot/table", Config{K: k, Colorings: 1, SamplesPerColoring: 3000, Strategy: AGS, CoverThreshold: 150, Seed: buildSeed, TablePath: path}},
	} {
		res, err := Count(g, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[tc.name] = countDigest(res.Counts, res.Samples, res.Covered, res.Achieved)
	}
	sres, err := Signatures(g, Config{K: k, Colorings: 1, SamplesPerColoring: 3000, Seed: buildSeed, SampleWorkers: 2, TablePath: path}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got["oneshot/signatures/table"] = signaturesDigest(sres)
	if sres, err = Signatures(g, Config{K: k, Colorings: 1, SamplesPerColoring: 3000, Strategy: AGS, CoverThreshold: 150, Seed: 53}, nil); err != nil {
		t.Fatal(err)
	}
	got["oneshot/signatures/build"] = signaturesDigest(sres)

	// Recorded before Count and Signatures shared one sampling run.
	want := map[string]string{
		"engine/ags/w0":            "75b01497cd757572b7feffcd985e7687c813b756bfc41b8eefb390b075b87a14",
		"engine/ags/w3":            "05fd439c224cbca35a5711f76839b63cb30e61a4af21350e84c6c48bb648a6c6",
		"engine/naive/w0":          "407d1dc91af298decf55daf267b962356bfd3e7671de71af0a34725f1ae1ee5a",
		"engine/naive/w3":          "12b320f71463d38d5ecd0c26709a662822541ce31beae1aa571d467925d5295c",
		"engine/precision":         "fd95e3492ada55060f2817d9eee373af1ec211c95a35801fcf0f5ddc97e3db84",
		"oneshot/colorings3":       "5de593c3008063ce65ec02a35a30f546a15f6a8d93aaa54bc07cbe399497dfe4",
		"oneshot/lambda":           "cdd8519e929724a41b4efc9edcfd6c1bd907b023c8c4457798720d0bb60125e5",
		"oneshot/signatures/build": "69ae2ab79a71355cec0910ff91b8d0e0fc0c4d81b4b43e6770a0b10749ff00ef",
		"oneshot/signatures/table": "950c55ab5ea300c9dca13300dee3585d15b655b2876d689514068d281b580c02",
		"oneshot/table":            "67abe179ba3602074ad0e43e64bc494565fcac6b3a84aa551615a3335293110d",
		"signatures/ags/w1":        "1f721fd818f9eb75705324bf64d1265bea96a40b77e5c8039884a08a34f5dca3",
		"signatures/ags/w4":        "1f721fd818f9eb75705324bf64d1265bea96a40b77e5c8039884a08a34f5dca3",
		"signatures/naive/w1":      "75cc45e2d9d74726966e41b1a8c7eb58ff2537220256f0f718fa90b76df3bb56",
		"signatures/naive/w4":      "75cc45e2d9d74726966e41b1a8c7eb58ff2537220256f0f718fa90b76df3bb56",
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests computed, %d recorded", len(got), len(want))
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("%s: digest %s, want %s", name, got[name], d)
		}
	}
}
