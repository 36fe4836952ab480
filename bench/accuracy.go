package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/exact"
)

// Thresholds of the accuracy check. A mean ℓ1 error of the frequency
// vectors above maxMeanL1, or a mean relative error of the total count
// above maxTotalErr, means the estimator is broken, not unlucky: over 40
// seeds of ER(2000, 6000) at k = 5 healthy runs stayed below 0.021 and
// 0.083 (one coloring per seed sets most of the total-count error).
const (
	maxMeanL1   = 0.1
	maxTotalErr = 0.25
	// foundAt is the exact count above which every motif must be found.
	foundAt = 1e4
	// rareBelow is the exact frequency below which a motif counts as rare.
	rareBelow = 1e-3
)

// checkAccuracy holds estimates of src's motifs to its exact counts. It
// asks eng for queries naive and queries AGS estimates of samples draws
// each, at seeds derived from seed, counts the motifs exactly with
// internal/exact, and checks that every estimate is finite and
// non-negative, that every motif with at least foundAt copies is found,
// and that the mean errors of each strategy stay within the thresholds
// above. None of it is timed.
func checkAccuracy(ctx context.Context, src *source, eng *core.Engine, seed int64, queries, samples int) (failures, info []string) {
	truth, err := exact.Count(src.g, src.k)
	if err != nil {
		return []string{fmt.Sprintf("exact count of %s: %v", src.name, err)}, nil
	}
	freq := estimate.Frequencies(truth)
	var exactTotal float64
	for _, c := range truth {
		exactTotal += c
	}
	var l1, totalErr, rare [2]float64
	var n, nRare [2]int
	for i := 0; i < 2*queries; i++ {
		st := core.Strategy(i % 2)
		q := core.Query{Strategy: st, Samples: samples, Seed: derive(seed, uint64(i)), SampleWorkers: 2}
		res, err := eng.Count(ctx, q)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s estimate %d: %v", st, i, err))
			continue
		}
		var total float64
		for code, c := range res.Counts {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				failures = append(failures, fmt.Sprintf("%s estimate %d: motif %v has count %v", st, i, code, c))
			}
			total += c
		}
		for code, c := range truth {
			if c >= foundAt && !(res.Counts[code] > 0) {
				failures = append(failures, fmt.Sprintf("%s estimate %d: motif %v with %g copies not found", st, i, code, c))
			}
			if freq[code] < rareBelow {
				rare[st] += math.Abs(res.Counts[code]-c) / c
				nRare[st]++
			}
		}
		l1[st] += estimate.L1(res.Counts, truth)
		totalErr[st] += math.Abs(total-exactTotal) / exactTotal
		n[st]++
	}
	for _, st := range []core.Strategy{core.Naive, core.AGS} {
		if n[st] == 0 {
			continue
		}
		meanL1, meanTotal := l1[st]/float64(n[st]), totalErr[st]/float64(n[st])
		info = append(info, fmt.Sprintf("accuracy: err_l1_%s %.6g over %d estimates; total count rel. error %.4g", st, meanL1, n[st], meanTotal))
		if nRare[st] > 0 {
			info = append(info, fmt.Sprintf("accuracy: rare_err_%s %.6g (mean relative error over motifs with frequency < %g)", st, rare[st]/float64(nRare[st]), rareBelow))
		}
		if meanL1 > maxMeanL1 {
			failures = append(failures, fmt.Sprintf("%s: mean l1 error %.4g exceeds %g", st, meanL1, maxMeanL1))
		}
		if meanTotal > maxTotalErr {
			failures = append(failures, fmt.Sprintf("%s: mean total-count error %.4g exceeds %g", st, meanTotal, maxTotalErr))
		}
	}
	info = append(info, fmt.Sprintf("check: %d estimates of %s held to exact counts of %d motif classes", n[0]+n[1], src.name, len(truth)))
	return failures, info
}
