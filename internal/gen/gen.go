// Package gen produces the synthetic graph datasets used by the experiment
// harness. The paper (Table III) evaluates on eight real-world graphs —
// web crawls (WDC12, ClueWeb12, UKWeb07), social networks (Friendster,
// LiveJournal), citation graphs (Patent, CiteSeer) and a co-authorship graph
// (MiCo) — that are terabyte-scale and not redistributable. This package
// provides deterministic scaled-down stand-ins with matching topology class
// (skewed RMAT degree distributions for web/social graphs, preferential
// attachment for citation graphs), the paper's edge-weight ranges and the
// paper's relative size ordering. See docs/ARCHITECTURE.md, "Reproduction
// substitutions", for the substitution rationale.
package gen

import (
	"fmt"
	"math/rand"

	"dsteiner/internal/graph"
)

// Kind selects a topology generator.
type Kind int

const (
	// KindRMAT is the recursive-matrix generator of Chakrabarti et al.,
	// producing skewed, scale-free-like degree distributions (web and
	// social network stand-ins).
	KindRMAT Kind = iota
	// KindErdosRenyi is the uniform random graph G(n, m).
	KindErdosRenyi
	// KindWattsStrogatz is the small-world ring-rewire model.
	KindWattsStrogatz
	// KindGrid2D is a rows x cols 4-neighbor mesh (VLSI-style example
	// workloads).
	KindGrid2D
	// KindCitation is incremental preferential attachment: each new
	// vertex links to OutDeg earlier vertices, biased to high degree
	// (citation-graph stand-in; always connected).
	KindCitation
)

func (k Kind) String() string {
	switch k {
	case KindRMAT:
		return "rmat"
	case KindErdosRenyi:
		return "er"
	case KindWattsStrogatz:
		return "ws"
	case KindGrid2D:
		return "grid"
	case KindCitation:
		return "citation"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config fully determines a synthetic graph. Identical Configs always build
// identical graphs.
type Config struct {
	Name string
	Kind Kind

	// N is the vertex count. For KindGrid2D, N must equal Rows*Cols.
	N int
	// AvgDegree is the target average number of arcs per vertex; the
	// generator emits N*AvgDegree/2 undirected edge samples (deduplication
	// can make the realized average slightly lower).
	AvgDegree int

	// RMAT quadrant probabilities (must sum to ~1). Zero values default
	// to the common (0.57, 0.19, 0.19, 0.05) web-graph skew.
	A, B, C, D float64

	// Rows, Cols for KindGrid2D.
	Rows, Cols int
	// K and Beta for KindWattsStrogatz (ring degree and rewire prob).
	K    int
	Beta float64
	// OutDeg for KindCitation.
	OutDeg int

	// MaxWeight draws integer edge weights uniformly from [1, MaxWeight],
	// matching the per-dataset ranges of Table III. Zero means unweighted
	// (all weights 1).
	MaxWeight uint32

	// Seed drives all randomness.
	Seed int64

	// Backbone, when true, adds a random spanning tree over all N
	// vertices so the graph is connected. Grid and citation graphs are
	// connected by construction.
	Backbone bool
}

// Build generates the graph. It panics only on programmer error
// (inconsistent Config); use Validate for checkable errors.
func (c Config) Build() (*graph.Graph, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	var edges []graph.Edge
	switch c.Kind {
	case KindRMAT:
		edges = rmatEdges(c, rng)
	case KindErdosRenyi:
		edges = erEdges(c, rng)
	case KindWattsStrogatz:
		edges = wsEdges(c, rng)
	case KindGrid2D:
		edges = gridEdges(c)
	case KindCitation:
		edges = citationEdges(c, rng)
	}
	if c.Backbone && c.Kind != KindGrid2D && c.Kind != KindCitation {
		edges = append(edges, backboneEdges(c.N, rng)...)
	}
	assignWeights(edges, c.MaxWeight, rng)
	b := graph.NewBuilder(c.N)
	b.AddEdges(edges)
	return b.Build()
}

// MustBuild is Build that panics on error, for registry datasets whose
// Configs are known valid.
func (c Config) MustBuild() *graph.Graph {
	g, err := c.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func (c Config) validate() error {
	if c.N <= 1 {
		return fmt.Errorf("gen: config %q: N=%d too small", c.Name, c.N)
	}
	switch c.Kind {
	case KindGrid2D:
		if c.Rows <= 0 || c.Cols <= 0 || c.Rows*c.Cols != c.N {
			return fmt.Errorf("gen: config %q: grid %dx%d != N=%d", c.Name, c.Rows, c.Cols, c.N)
		}
	case KindWattsStrogatz:
		if c.K <= 0 || c.K >= c.N {
			return fmt.Errorf("gen: config %q: ws K=%d out of range", c.Name, c.K)
		}
		if c.Beta < 0 || c.Beta > 1 {
			return fmt.Errorf("gen: config %q: ws Beta=%f out of range", c.Name, c.Beta)
		}
	case KindCitation:
		if c.OutDeg <= 0 {
			return fmt.Errorf("gen: config %q: citation OutDeg=%d", c.Name, c.OutDeg)
		}
	case KindRMAT, KindErdosRenyi:
		if c.AvgDegree <= 0 {
			return fmt.Errorf("gen: config %q: AvgDegree=%d", c.Name, c.AvgDegree)
		}
	default:
		return fmt.Errorf("gen: config %q: unknown kind %d", c.Name, int(c.Kind))
	}
	return nil
}

// assignWeights draws uniform integer weights in [1, maxW] for every edge.
func assignWeights(edges []graph.Edge, maxW uint32, rng *rand.Rand) {
	if maxW <= 1 {
		for i := range edges {
			edges[i].W = 1
		}
		return
	}
	for i := range edges {
		edges[i].W = uint32(rng.Int63n(int64(maxW))) + 1
	}
}

// backboneEdges returns a uniform random spanning tree (random attachment)
// over n vertices, guaranteeing connectivity.
func backboneEdges(n int, rng *rand.Rand) []graph.Edge {
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edges = append(edges, graph.Edge{U: graph.VID(u), V: graph.VID(v), W: 1})
	}
	return edges
}
