package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"dsteiner/internal/baseline"
	"dsteiner/internal/core"
	"dsteiner/internal/graph"
)

// verdict is the oracle's finding over a run's answers.
type verdict struct {
	failed    int      // answers that failed or were wrong
	problems  []string // the first few findings, for the report
	logRatios []float64
	checks    map[string]int // answers each check ran on
	skipped   int            // terminals skipped over all prize answers
}

// costRatio is the geometric mean of tree cost / Mehlhorn cost.
func (v *verdict) costRatio() float64 {
	if len(v.logRatios) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v.logRatios {
		s += x
	}
	return math.Exp(s / float64(len(v.logRatios)))
}

// check runs the correctness oracle on every answer, after the timed
// windows, against a graph decoded separately from the same bytes:
//   - a tree answer is a valid Steiner tree of its terminals whose cost is
//     the sum of its edges and at most 2× baseline.Mehlhorn's (OPT is at
//     most Mehlhorn's cost, and the solver is a 2-approximation);
//   - on tcp-tree every answer is byte-identical (edges and total) to a
//     loopback core.Default(4) engine's answer for the same terminals;
//   - a prize answer has objective = total + paidPenalty, paidPenalty the
//     sum of the skipped terminals' penalties, skipped ⊆ terminals, and its
//     edges form a valid Steiner tree over the kept terminals.
func check(w string, data []byte, samples []sample) (*verdict, error) {
	g, err := graph.ReadBinary(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("oracle: load graph: %w", err)
	}
	var ref *engineTarget
	if w == "tcp-tree" {
		if ref, err = newEngine(g, ranks, 0); err != nil {
			return nil, fmt.Errorf("oracle: loopback engine: %w", err)
		}
		defer ref.close()
	}
	v := &verdict{checks: map[string]int{}}
	mehl := map[string]graph.Dist{}
	loop := map[string]*core.Result{}
	for _, s := range samples {
		if err := v.one(g, s, mehl, loop, ref); err != nil {
			v.failed++
			if len(v.problems) < 5 {
				v.problems = append(v.problems, fmt.Sprintf("%s query: %v", s.q.class, err))
			}
		}
	}
	return v, nil
}

func (v *verdict) one(g *graph.Graph, s sample, mehl map[string]graph.Dist,
	loop map[string]*core.Result, ref *engineTarget) error {
	r := s.rep
	if r.err != nil {
		return r.err
	}
	terms := s.q.spec.Seeds
	if sum := graph.TotalWeight(r.edges); sum != r.total {
		return fmt.Errorf("total %d != edge weight sum %d", r.total, sum)
	}
	if s.q.spec.Mode == core.ModePrize {
		v.checks["prize"]++
		v.skipped += len(r.skipped)
		return checkPrize(g, s.q.spec, r)
	}
	v.checks["tree"]++
	if err := graph.ValidateSteinerTree(g, terms, r.edges); err != nil {
		return err
	}
	key := setKey(terms)
	m, ok := mehl[key]
	if !ok {
		t, err := baseline.Mehlhorn(g, terms)
		if err != nil {
			return fmt.Errorf("Mehlhorn: %w", err)
		}
		m = t.Total
		mehl[key] = m
	}
	if r.total > 2*m {
		return fmt.Errorf("cost %d > 2 × Mehlhorn %d", r.total, m)
	}
	v.logRatios = append(v.logRatios, math.Log(float64(r.total)/float64(m)))
	if ref == nil {
		return nil
	}
	v.checks["loopback-identical"]++
	want, ok := loop[key]
	if !ok {
		rr := ref.do(s.q, nil, 0)
		if rr.err != nil {
			return fmt.Errorf("loopback reference: %w", rr.err)
		}
		want = rr.res
		loop[key] = want
	}
	if r.total != want.TotalDistance || !slices.Equal(r.edges, want.Tree) {
		return fmt.Errorf("TCP answer (total %d, %d edges) differs from loopback (total %d, %d edges)",
			r.total, len(r.edges), want.TotalDistance, len(want.Tree))
	}
	return nil
}

func checkPrize(g *graph.Graph, spec core.QuerySpec, r reply) error {
	if r.objective != r.total+r.paid {
		return fmt.Errorf("objective %d != total %d + paidPenalty %d", r.objective, r.total, r.paid)
	}
	penalty := make(map[graph.VID]graph.Dist, len(spec.Seeds))
	for i, t := range spec.Seeds {
		penalty[t] = spec.Penalties[i]
	}
	skipped := make(map[graph.VID]bool, len(r.skipped))
	var paid graph.Dist
	for _, t := range r.skipped {
		p, ok := penalty[t]
		if !ok || skipped[t] {
			return fmt.Errorf("skipped vertex %d is not a distinct terminal", t)
		}
		skipped[t] = true
		paid += p
	}
	if paid != r.paid {
		return fmt.Errorf("paidPenalty %d != skipped penalties %d", r.paid, paid)
	}
	var kept []graph.VID
	for _, t := range spec.Seeds {
		if !skipped[t] {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		if len(r.edges) != 0 {
			return fmt.Errorf("%d edges with every terminal skipped", len(r.edges))
		}
		return nil
	}
	return graph.ValidateSteinerTree(g, kept, r.edges)
}
