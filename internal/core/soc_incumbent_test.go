package core_test

import (
	"context"
	"testing"

	"clockroute/internal/bench"
	"clockroute/internal/core"
)

// TestSoCPathIncumbents pins the insertion-aware incumbent paths on the
// headline batch: the SoC25mm die at 0.5 mm pitch, whose HardIP blocks are
// wider than a segment's reach, so the BFS shortest path alone leaves some
// nets with no incumbent (and a window probe that exhausts its budget) and
// others with a loose one. Every net must now get a finite incumbent from
// the path layer, no probe may run, and the routed batch must keep the
// fingerprint of BENCH_core.json (65 registers, 39 500 ps summed latency).
func TestSoCPathIncumbents(t *testing.T) {
	pl, specs, err := bench.SoCNetWorkload(0.5, 16)
	if err != nil {
		t.Fatal(err)
	}
	g := pl.Grid()
	plan, err := pl.RunParallel(context.Background(), 1, specs)
	if err != nil {
		t.Fatal(err)
	}
	regs, lat := 0, 0.0
	for i, spec := range specs {
		net := plan.Nets[i]
		if net.Err != nil {
			t.Fatalf("%s: %v", spec.Name, net.Err)
		}
		regs += net.Registers
		lat += net.LatencyPS
		if net.Stats.ProbeConfigs != 0 {
			t.Errorf("%s: window probe ran (%d configs); the path layer should have supplied the incumbent",
				spec.Name, net.Stats.ProbeConfigs)
		}
		p, err := core.NewProblem(g, pl.Model(), g.ID(spec.Src), g.ID(spec.Dst))
		if err != nil {
			t.Fatal(err)
		}
		if spec.SrcPeriodPS == spec.DstPeriodPS {
			u, ok := core.PathIncumbentRBP(p, spec.SrcPeriodPS)
			if !ok || u < net.Registers {
				t.Errorf("%s (RBP): path incumbent %d registers (ok=%v), optimum %d", spec.Name, u, ok, net.Registers)
			}
			continue
		}
		u, ok := core.PathIncumbentGALS(p, spec.SrcPeriodPS, spec.DstPeriodPS)
		if !ok || u < net.LatencyPS {
			t.Errorf("%s (GALS): path incumbent %g ps (ok=%v), optimum %g ps", spec.Name, u, ok, net.LatencyPS)
		}
	}
	if regs != 65 || lat != 39500 {
		t.Errorf("batch fingerprint = %d registers, %g ps latency; want 65, 39500", regs, lat)
	}
}
