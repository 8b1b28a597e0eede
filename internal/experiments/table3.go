package experiments

import (
	"fmt"

	"dsteiner/internal/gen"
	"dsteiner/internal/tables"
)

// Table3 reproduces Table III: characteristics of the graph datasets — here
// the synthetic stand-ins, with the paper's reported full-scale numbers
// alongside for comparison. Run this first to sanity-check that the
// stand-ins preserve the relative size ordering and weight ranges.
func Table3(cfg Config) ([]tables.Table, error) {
	t := tables.Table{
		Title: "Table III: dataset characteristics (stand-ins vs paper)",
		Header: []string{"Graph", "|V|", "2|E|", "MaxDeg", "AvgDeg",
			"Weights", "Bytes", "Paper |V|", "Paper 2|E|"},
	}
	for _, name := range gen.DatasetNames() {
		info := gen.MustDataset(name)
		g := cfg.Graph(name)
		cfg.logf("table3: %s built", name)
		minW, maxW := g.WeightRange()
		t.AddRow(
			name,
			tables.Count(int64(g.NumVertices())),
			tables.Count(g.NumArcs()),
			tables.Count(int64(g.MaxDegree())),
			fmt.Sprintf("%.1f", g.AvgDegree()),
			fmt.Sprintf("[%d, %s]", minW, tables.Count(int64(maxW))),
			tables.Bytes(g.MemoryBytes()),
			info.Paper.Vertices,
			info.Paper.Arcs,
		)
	}
	t.AddNote("stand-ins are deterministic synthetic graphs (internal/gen); see docs/ARCHITECTURE.md, Reproduction substitutions")
	return []tables.Table{t}, nil
}
