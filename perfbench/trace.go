package main

import (
	"sync"
	"time"

	"dsteiner/internal/core"
)

// span is one traced interval at a layer boundary. Times are nanoseconds
// since the run started. Query is the query's sequence number (-1 for
// set-up spans); Derived marks spans laid out from durations the program
// reported rather than timed by the benchmark.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0: root
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Query   int64  `json:"query"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// id reserves a span ID, so a parent's ID is known before its children are
// recorded.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a span with a reserved ID.
func (t *tracer) add(id, parent int64, name string, query int64, start, end time.Time, derived bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Query: query, Derived: derived,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// timed runs fn inside a new span and returns fn's error.
func (t *tracer) timed(parent int64, name string, fn func() error) (time.Duration, error) {
	id := t.id()
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(id, parent, name, -1, start, end, false)
	return end.Sub(start), err
}

// addPhases lays the program-reported phase durations end to end from
// start as children of parent, so parent's self time is the time the
// phases do not account for.
func (t *tracer) addPhases(parent, query int64, start time.Time, phases []core.PhaseStat) {
	if t == nil {
		return
	}
	at := start
	for _, ph := range phases {
		end := at.Add(time.Duration(ph.Seconds * float64(time.Second)))
		t.add(t.id(), parent, "phase."+phaseKey(ph.Name), query, at, end, true)
		at = end
	}
}

// phaseKey maps a core phase name to its metric suffix.
func phaseKey(name string) string {
	switch name {
	case core.PhaseVoronoi:
		return "voronoi"
	case core.PhaseLocalMinEdge:
		return "local_min_edge"
	case core.PhaseGlobalMinEdge:
		return "global_min_edge"
	case core.PhaseMST:
		return "mst"
	case core.PhasePruning:
		return "pruning"
	case core.PhaseTreeEdge:
		return "tree_edge"
	}
	return name
}
