package experiments

import (
	"fmt"

	"dsteiner/internal/core"
	"dsteiner/internal/tables"
)

// fig3Datasets are the four largest graphs, as in the paper.
var fig3Datasets = []string{"WDC12", "CLW12", "UKW07", "FRS"}

// fig3Ranks is the strong-scaling platform sweep. The paper doubles compute
// nodes three times per dataset (e.g. 32/64/128); we sweep simulated ranks.
var fig3Ranks = []int{1, 2, 4, 8}

// Fig3 reproduces the strong-scaling experiment: per-phase runtime at
// doubling rank counts for the four largest graphs at |S| = 100 and 1000.
// Wall-clock speedup on one box is bounded by physical cores, so the table
// also reports the critical-path work metric (max per-rank messages
// processed, reduced over vertex-centric phases): its drop with P is the
// machine-independent scaling shape (see docs/ARCHITECTURE.md,
// "Reproduction substitutions"). The paper's shape:
// Voronoi-cell dominates everywhere, local min-dist edge scales almost
// linearly, the last four phases are negligible.
func Fig3(cfg Config) ([]tables.Table, error) {
	var out []tables.Table
	for _, name := range fig3Datasets {
		for _, k := range []int{100, 1000} {
			if !contains(cfg.SeedCounts(name), k) {
				continue
			}
			seedSet := cfg.Seeds(name, k)
			g := cfg.Graph(name)
			t := tables.Table{
				Title: fmt.Sprintf("Fig. 3: strong scaling, %s |S|=%d", name, k),
				Header: append([]string{"Ranks"},
					append(phaseShortNames(), "Total", "CP-work", "CP-speedup")...),
			}
			var baseWork int64
			for _, p := range fig3Ranks {
				cfg.logf("fig3: %s |S|=%d P=%d", name, k, p)
				res, err := core.Solve(g, seedSet, core.Default(p))
				if err != nil {
					return nil, err
				}
				cpWork := criticalPathWork(res)
				if baseWork == 0 {
					baseWork = cpWork
				}
				row := []string{itoa(p)}
				for _, ph := range res.Phases {
					row = append(row, tables.Seconds(ph.Seconds))
				}
				row = append(row,
					tables.Seconds(res.TotalSeconds()),
					tables.Count(cpWork),
					tables.Ratio(float64(baseWork)/float64(cpWork)))
				t.AddRow(row...)
			}
			t.AddNote("CP-work = sum over vertex-centric phases of max-per-rank messages processed")
			t.AddNote("paper: up to 90%% efficient scaling on CLW/WDC; Voronoi cell dominates")
			out = append(out, t)
		}
	}
	return out, nil
}

// criticalPathWork sums the per-phase max-rank work: a lower bound on any
// rank's processing on the critical path.
func criticalPathWork(res *core.Result) int64 {
	var sum int64
	for _, p := range res.Phases {
		sum += p.MaxRankWork
	}
	if sum == 0 {
		return 1
	}
	return sum
}

// phaseShortNames abbreviates the six phase names for table headers.
func phaseShortNames() []string {
	return []string{"Voronoi", "LocMinE", "GlbMinE", "MST", "Prune", "TreeE"}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
