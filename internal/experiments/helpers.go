package experiments

import (
	"fmt"
	"io"

	"repro/internal/graphlet"
	"repro/internal/treelet"
)

// isPathCode reports whether the graphlet is the k-path (two degree-1
// endpoints, the rest degree 2, k-1 edges).
func isPathCode(k int, c graphlet.Code) bool {
	if c.EdgeCount() != k-1 {
		return false
	}
	ones, twos := 0, 0
	for _, d := range graphlet.Degrees(k, c) {
		switch d {
		case 1:
			ones++
		case 2:
			twos++
		}
	}
	return ones == 2 && twos == k-2
}

// pathShapeOf returns the unrooted canonical treelet shape of the k-path.
func pathShapeOf(k int) treelet.Treelet {
	parents := make([]int, k)
	for i := 1; i < k; i++ {
		parents[i] = i - 1
	}
	return treelet.UnrootedCanonical(treelet.FromParents(parents))
}

// paperOrder lists the experiment ids in the order the paper presents them.
var paperOrder = []string{
	"datasets", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"speedup", "tablesize", "samplerate", "l1", "lollipop",
}

// All runs every experiment in paper order, stopping at the first error.
func All(w io.Writer) error {
	for _, id := range paperOrder {
		if err := Registry[id](w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		io.WriteString(w, "\n")
	}
	return nil
}

// Registry maps experiment ids to runners for the CLI.
var Registry = map[string]func(io.Writer) error{
	"datasets":   DatasetsTable,
	"fig2":       Fig2CheckMerge,
	"fig3":       Fig3BuildMemory,
	"fig4":       Fig4ZeroRooting,
	"fig5":       Fig5NeighborBuffering,
	"fig6":       Fig6BiasedColoring,
	"fig7":       Fig7Scaling,
	"fig8":       Fig8ErrorDistributions,
	"fig9":       Fig9AccurateGraphlets,
	"fig10":      Fig10RarestGraphlet,
	"speedup":    TableBuildSpeedup,
	"tablesize":  TableSize,
	"samplerate": TableSamplingSpeed,
	"l1":         L1Accuracy,
	"lollipop":   LollipopLowerBound,
}
