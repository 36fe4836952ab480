package sample

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graphlet"
	"repro/internal/table"
)

// The batching property: a SampleBatch sequence is bit-identical to
// repeated Sample calls at equal seed — for every batch size, on both
// materialized and smart tables, and with the amortization caches on or
// off. The estimators lean on this: restructuring their loops around
// batches must not change any seeded result.

// cacheArms is the caches-on/off matrix: both shared caches at their
// default budgets, both off, and each one on alone.
var cacheArms = []struct {
	name           string
	decode, sweeps int
}{
	{"true", DefaultDecodePairBudget, DefaultSweepCandBudget},
	{"false", 0, 0},
	{"decode-only", DefaultDecodePairBudget, 0},
	{"sweeps-only", 0, DefaultSweepCandBudget},
}

// checkRootResidency pins the residency rule: after draws, the decoded-
// record memo holds size-k root records keyed by node, each equal to a
// fresh decode, and nothing else.
func checkRootResidency(t *testing.T, u *Urn) {
	t.Helper()
	pairs := 0
	u.decode.Range(func(v uint64, d *table.Decoded) bool {
		var want table.Decoded
		u.Tab.Rec(u.K, int32(v)).Decode(&want)
		if !reflect.DeepEqual(d.Keys, want.Keys) || !reflect.DeepEqual(d.Cum, want.Cum) {
			t.Fatalf("resident record of node %d is not its decoded size-%d record", v, u.K)
		}
		pairs += d.Len()
		return true
	})
	if pairs == 0 || pairs != u.decode.Spent() {
		t.Fatalf("root records hold %d of the memo's %d decoded pairs", pairs, u.decode.Spent())
	}
}

type draw struct {
	code  graphlet.Code
	nodes []int32
}

func record(code graphlet.Code, nodes []int32) draw {
	return draw{code, append([]int32(nil), nodes...)} // buffers are reused across draws
}

func TestSampleBatchBitIdentical(t *testing.T) {
	g := gen.ErdosRenyi(80, 280, 17)
	const k, total, seed = 5, 600, 99
	tabMat, tabSmart, col, cat := buildPair(t, g, k, 505)
	for _, tc := range []struct {
		name string
		tab  *table.Table
	}{
		{"materialized", tabMat},
		{"smart", tabSmart},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: the one-at-a-time sequence, caches on.
			ref, err := NewUrn(g, col, tc.tab, cat)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			want := make([]draw, 0, total)
			for i := 0; i < total; i++ {
				want = append(want, record(ref.Sample(rng)))
			}
			for _, arm := range cacheArms {
				for _, batch := range []int{1, 7, 64} {
					t.Run(fmt.Sprintf("caches=%s/batch=%d", arm.name, batch), func(t *testing.T) {
						urn, err := NewUrn(g, col, tc.tab, cat)
						if err != nil {
							t.Fatal(err)
						}
						urn.SetCacheBudgets(arm.decode, arm.sweeps)
						rng := rand.New(rand.NewSource(seed))
						got := make([]draw, 0, total)
						for len(got) < total {
							n := min(batch, total-len(got))
							made := urn.SampleBatch(rng, n, func(code graphlet.Code, nodes []int32) bool {
								got = append(got, record(code, nodes))
								return true
							})
							if made != n {
								t.Fatalf("SampleBatch made %d of %d draws", made, n)
							}
						}
						for i := range want {
							if want[i].code != got[i].code || !reflect.DeepEqual(want[i].nodes, got[i].nodes) {
								t.Fatalf("draw %d differs: want %v%v, got %v%v",
									i, want[i].code, want[i].nodes, got[i].code, got[i].nodes)
							}
						}
						if arm.decode > 0 {
							checkRootResidency(t, urn)
						}
					})
				}
			}
		})
	}
}

func TestShapeSampleBatchBitIdentical(t *testing.T) {
	g := gen.BarabasiAlbert(90, 3, 23)
	const k, total, seed = 5, 300, 41
	tabMat, tabSmart, col, cat := buildPair(t, g, k, 303)
	for _, tc := range []struct {
		name string
		tab  *table.Table
	}{
		{"materialized", tabMat},
		{"smart", tabSmart},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mkShape := func(decode, sweeps int) (*Urn, map[string]*ShapeUrn) {
				urn, err := NewUrn(g, col, tc.tab, cat)
				if err != nil {
					t.Fatal(err)
				}
				urn.SetCacheBudgets(decode, sweeps)
				out := make(map[string]*ShapeUrn)
				for _, shape := range cat.UnrootedK {
					su, err := urn.NewShapeUrn(shape)
					if err != nil {
						t.Fatal(err)
					}
					if !su.Empty() {
						out[fmt.Sprint(shape)] = su
					}
				}
				return urn, out
			}
			refUrn, refs := mkShape(DefaultDecodePairBudget, DefaultSweepCandBudget)
			if len(refs) == 0 {
				t.Fatal("no shape had occurrences — vacuous run")
			}
			want := make(map[string][]draw, len(refs))
			for name, su := range refs {
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < total; i++ {
					want[name] = append(want[name], record(su.Sample(refUrn, rng)))
				}
			}
			for _, arm := range cacheArms {
				for _, batch := range []int{1, 7, 64} {
					t.Run(fmt.Sprintf("caches=%s/batch=%d", arm.name, batch), func(t *testing.T) {
						urn, sus := mkShape(arm.decode, arm.sweeps)
						for name, su := range sus {
							rng := rand.New(rand.NewSource(seed))
							var got []draw
							for len(got) < total {
								n := min(batch, total-len(got))
								su.SampleBatch(urn, rng, n, func(code graphlet.Code, nodes []int32) bool {
									got = append(got, record(code, nodes))
									return true
								})
							}
							for i := range want[name] {
								w, g := want[name][i], got[i]
								if w.code != g.code || !reflect.DeepEqual(w.nodes, g.nodes) {
									t.Fatalf("shape %s draw %d differs", name, i)
								}
							}
						}
						if arm.decode > 0 {
							checkRootResidency(t, urn)
						}
					})
				}
			}
		})
	}
}

// TestParallelConstructionBitIdentical pins the open-path contract: urns
// and shape urns built with the parallel weighting passes (GOMAXPROCS > 1)
// are indistinguishable from sequentially built ones — same totals, same
// roots, same seeded draw sequences. Run under -race this also exercises
// the construction fan-out for data races regardless of host CPU count.
func TestParallelConstructionBitIdentical(t *testing.T) {
	g := gen.ErdosRenyi(400, 1600, 29)
	const k, seed = 5, 13
	_, tabSmart, col, cat := buildPair(t, g, k, 707)

	build := func(procs int) (*Urn, []*ShapeUrn) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		urn, err := NewUrn(g, col, tabSmart, cat)
		if err != nil {
			t.Fatal(err)
		}
		sus, err := urn.NewShapeUrns(cat.UnrootedK)
		if err != nil {
			t.Fatal(err)
		}
		return urn, sus
	}
	seqUrn, seqShapes := build(1)
	parUrn, parShapes := build(4)

	if seqUrn.Total() != parUrn.Total() {
		t.Fatalf("urn totals differ: %v vs %v", seqUrn.Total(), parUrn.Total())
	}
	rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for i := 0; i < 500; i++ {
		ca, na := seqUrn.Sample(rngA)
		cb, nb := parUrn.Sample(rngB)
		if ca != cb || !reflect.DeepEqual(na, nb) {
			t.Fatalf("urn draw %d differs", i)
		}
	}
	for i := range seqShapes {
		sa, sb := seqShapes[i], parShapes[i]
		if sa.Total() != sb.Total() || sa.Empty() != sb.Empty() {
			t.Fatalf("shape %v: totals/emptiness differ", sa.Shape)
		}
		if sa.Empty() {
			continue
		}
		rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for d := 0; d < 100; d++ {
			ca, na := sa.Sample(seqUrn, rngA)
			cb, nb := sb.Sample(parUrn, rngB)
			if ca != cb || !reflect.DeepEqual(na, nb) {
				t.Fatalf("shape %v draw %d differs", sa.Shape, d)
			}
		}
	}
}

// TestSampleBatchEarlyExit pins the estimator contract: cutting a batch
// short leaves the RNG exactly where the equivalent number of Sample
// calls would, so the global seeded sequence continues unbroken across
// batch boundaries (AGS relies on this when it switches shape mid-batch).
func TestSampleBatchEarlyExit(t *testing.T) {
	g := gen.ErdosRenyi(80, 280, 17)
	const k, seed = 5, 7
	_, tabSmart, col, cat := buildPair(t, g, k, 505)
	ref, err := NewUrn(g, col, tabSmart, cat)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var want []draw
	for i := 0; i < 20; i++ {
		want = append(want, record(ref.Sample(rng)))
	}

	urn, err := NewUrn(g, col, tabSmart, cat)
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(seed))
	var got []draw
	made := urn.SampleBatch(rng, 20, func(code graphlet.Code, nodes []int32) bool {
		got = append(got, record(code, nodes))
		return len(got) < 4 // stop the batch after the 4th draw
	})
	if made != 4 {
		t.Fatalf("early-exit batch made %d draws, want 4", made)
	}
	for i := 0; i < 16; i++ { // the sequence must pick up where the batch stopped
		got = append(got, record(urn.Sample(rng)))
	}
	for i := range want {
		if want[i].code != got[i].code || !reflect.DeepEqual(want[i].nodes, got[i].nodes) {
			t.Fatalf("draw %d differs across the early-exit boundary", i)
		}
	}
}
