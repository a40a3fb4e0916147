package core

import (
	"testing"

	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
)

// TestShareCacheTables pins what the plan-scoped cache holds after one
// net's width ladder: one BFS field per endpoint (BFS is model-independent,
// so every width reuses them) and one segment reach per (model, period).
// Routing the ladder again must hit every entry and add none, and every
// search must match its uncached twin exactly, stats included.
func TestShareCacheTables(t *testing.T) {
	g := grid.MustNew(41, 11, 0.5)
	g.AddObstacle(geom.R(10, 3, 25, 8))
	src, dst := g.ID(geom.Pt(0, 5)), g.ID(geom.Pt(40, 5))
	const T = 400.0
	var probs []*Problem
	for _, w := range []float64{1, 1.5, 2} {
		wt, err := testTech().WithWireWidth(w)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProblem(g, elmore.MustNewModel(wt, g.PitchMM()), src, dst)
		if err != nil {
			t.Fatal(err)
		}
		probs = append(probs, p)
	}

	sh := NewShareCache(g)
	for pass := 1; pass <= 2; pass++ {
		for _, p := range probs {
			shared, err := RBP(p, T, Options{Share: sh})
			if err != nil {
				t.Fatal(err)
			}
			alone, err := RBP(p, T, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if shared.Latency != alone.Latency || shared.Registers != alone.Registers ||
				shared.Stats.Configs != alone.Stats.Configs || shared.Stats.BoundPruned != alone.Stats.BoundPruned ||
				shared.Stats.ProbeConfigs != alone.Stats.ProbeConfigs {
				t.Fatalf("pass %d: shared search diverged from uncached: %+v vs %+v", pass, shared, alone)
			}
		}
		if len(sh.fields) != 2 || sh.fields[int32(src)] == nil || sh.fields[int32(dst)] == nil {
			t.Errorf("pass %d: %d BFS fields, want exactly the two endpoints'", pass, len(sh.fields))
		}
		if len(sh.reach) != len(probs) {
			t.Errorf("pass %d: %d reach entries, want one per (model, period) = %d", pass, len(sh.reach), len(probs))
		}
		for _, p := range probs {
			found := false
			for k := range sh.reach {
				found = found || (k.m == p.Model && k.t == T)
			}
			if !found {
				t.Errorf("pass %d: no reach entry for width model %p", pass, p.Model)
			}
		}
	}
}
