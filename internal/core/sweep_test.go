package core

// Kernel-equivalence regression gate: seeded random instances of mixed
// sizes, each routed by every kernel twice — admissible bounds on
// (default) and off — asserting the results are byte-for-byte identical
// (values, path, gates; effort counters legitimately differ). This is
// the volume half of the exactness proof: the fuzzer explores tiny
// grids adversarially, this sweep covers realistic shapes (lines, wide
// and tall grids, interior endpoints, all blockage kinds) at scale.
//
// The same helper backs two tests: TestKernelEquivalenceSweep runs a
// reduced count on every CI pass (tier1 runs the full suite), and the
// slowtest-tagged TestKernelEquivalenceSweepFull (make sweep, part of
// tier1) runs the ≥500-instance version with a different seed. Each runs two streams: the
// mixed-shape generator, and a block-heavy one whose IP blocks outspan a
// segment so the insertion-aware incumbent paths (gapPath) are exercised.
// Both also check the path-DP incumbent layer itself: no path's DP value
// may undercut the exact optimum.

import (
	"math/rand"
	"testing"

	"clockroute/internal/elmore"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
)

// sweepCase is one drawn instance. Unlike the metamorphic generator it
// places endpoints anywhere (not only corners) and allows degenerate
// shapes: 1-row lines, blockages touching the boundary, fully walled-off
// endpoints (those draws are rejected by NewProblem and redrawn).
type sweepCase struct {
	p         *Problem
	T, Ts, Tt float64
}

func randomSweepCase(rng *rand.Rand) *sweepCase {
	W := 3 + rng.Intn(12) // 3..14
	H := 1 + rng.Intn(9)  // 1..9
	pitch := []float64{0.25, 0.5, 1.0}[rng.Intn(3)]
	g := grid.MustNew(W, H, pitch)
	for i := rng.Intn(5); i > 0; i-- {
		x, y := rng.Intn(W), rng.Intn(H)
		r := geom.R(x, y, min(x+1+rng.Intn(3), W), min(y+1+rng.Intn(3), H))
		switch rng.Intn(3) {
		case 0:
			g.AddObstacle(r)
		case 1:
			g.AddRegisterBlockage(r)
		default:
			g.AddWiringBlockage(r)
		}
	}
	m, err := elmore.NewModel(testTech(), pitch)
	if err != nil {
		return nil
	}
	n := g.NumNodes()
	src := rng.Intn(n)
	dst := rng.Intn(n)
	if src == dst {
		return nil
	}
	p, err := NewProblem(g, m, src, dst)
	if err != nil {
		return nil // endpoint landed on a blockage — redrawn by the caller
	}
	return &sweepCase{
		p:  p,
		T:  float64(20 + rng.Intn(980)),
		Ts: float64(20 + rng.Intn(980)),
		Tt: float64(20 + rng.Intn(980)),
	}
}

// randomBlockSweepCase draws a die of up to 32×32 nodes crossed by one to
// three tall obstacle or register-blockage rectangles 5–12 nodes wide —
// wider than the small gap budgets of incumbentGaps, and at coarse pitch
// wider than a segment's reach — with the source in the west quarter and
// the sink in the east quarter, so the BFS shortest path usually runs
// straight over a span with no register site.
func randomBlockSweepCase(rng *rand.Rand) *sweepCase {
	W := 12 + rng.Intn(21) // 12..32
	H := 6 + rng.Intn(27)  // 6..32
	pitch := []float64{0.25, 0.5, 1.0}[rng.Intn(3)]
	g := grid.MustNew(W, H, pitch)
	for i := 1 + rng.Intn(3); i > 0; i-- {
		bw := 5 + rng.Intn(8) // 5..12
		x := 1 + rng.Intn(max(1, W-bw-1))
		y := rng.Intn(H)
		r := geom.R(x, y, min(x+bw, W), min(y+H/2+rng.Intn(H), H))
		if rng.Intn(5) < 3 {
			g.AddObstacle(r)
		} else {
			g.AddRegisterBlockage(r)
		}
	}
	if rng.Intn(4) == 0 {
		x, y := rng.Intn(W), rng.Intn(H)
		g.AddWiringBlockage(geom.R(x, y, min(x+1+rng.Intn(2), W), min(y+1+rng.Intn(2), H)))
	}
	m, err := elmore.NewModel(testTech(), pitch)
	if err != nil {
		return nil
	}
	src := g.ID(geom.Pt(rng.Intn(W/4), rng.Intn(H)))
	dst := g.ID(geom.Pt(W-1-rng.Intn(W/4), rng.Intn(H)))
	p, err := NewProblem(g, m, src, dst)
	if err != nil {
		return nil // endpoint landed on a blockage — redrawn by the caller
	}
	return &sweepCase{
		p:  p,
		T:  float64(150 + rng.Intn(830)),
		Ts: float64(150 + rng.Intn(830)),
		Tt: float64(150 + rng.Intn(830)),
	}
}

// kernelEquivalenceSweep draws n valid instances from the seeded stream
// of gen, asserts bounded == unbounded for every kernel on each, and
// checks the path-DP incumbents against the unbounded optima. It returns
// how many instances evaluated at least one insertion-aware path.
func kernelEquivalenceSweep(t *testing.T, seed int64, n int, gen func(*rand.Rand) *sweepCase) (gapCases int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for built, attempts := 0, 0; built < n; attempts++ {
		if attempts > 20*n {
			t.Fatalf("generator rejected too many draws: %d built after %d attempts", built, attempts)
		}
		c := gen(rng)
		if c == nil {
			continue
		}
		built++
		p := c.p
		runs := []struct {
			name string
			run  func(opts Options) (*Result, error)
		}{
			{"fastpath", func(o Options) (*Result, error) { return FastPath(p, o) }},
			{"rbp", func(o Options) (*Result, error) { return RBP(p, c.T, o) }},
			{"rbp-array", func(o Options) (*Result, error) { return RBPArrayQueues(p, c.T, o) }},
			{"rbp-slack", func(o Options) (*Result, error) {
				o.MaximizeSlack = true
				return RBP(p, c.T, o)
			}},
			{"gals", func(o Options) (*Result, error) { return GALS(p, c.Ts, c.Tt, o) }},
		}
		optima := map[string]*Result{}
		for _, r := range runs {
			bounded, berr := r.run(Options{})
			unbounded, uerr := r.run(Options{DisableBounds: true})
			bs := fuzzSnap(t, r.name+"/bounded", bounded, berr)
			us := fuzzSnap(t, r.name+"/unbounded", unbounded, uerr)
			if bs != us {
				t.Errorf("instance %d %s: bounded result diverges from unbounded\nbounded   %s\nunbounded %s",
					built-1, r.name, bs, us)
			}
			optima[r.name] = unbounded
		}
		if checkPathIncumbents(t, built-1, c, optima["rbp"], optima["gals"]) {
			gapCases++
		}
	}
	return gapCases
}

// checkPathIncumbents runs the segment DPs on every path of the incumbent
// path set — the BFS shortest path and each insertion-aware path — and
// asserts none undercuts the exact optimum (nil = no solution): each DP
// value must be a labeling the kernel can reach. Reports whether any
// insertion-aware path was evaluated.
func checkPathIncumbents(t *testing.T, idx int, c *sweepCase, rbpOpt, galsOpt *Result) (gapPaths bool) {
	t.Helper()
	p := c.p
	bd := new(Scratch).PrepBounds(p)
	reach := bd.rbpReach(nil, p, c.T)
	reachS, reachT := bd.galsReaches(nil, p, c.Ts, c.Tt)
	rbpPaths, galsPaths := 0, 0
	bd.forIncumbentPaths(p, reach, reach, func() {
		rbpPaths++
		if regs, ok := bd.regsAlongPath(p, c.T); ok && (rbpOpt == nil || regs < rbpOpt.Registers) {
			t.Errorf("instance %d: RBP incumbent %d registers on path %v undercuts the optimum %+v", idx, regs, bd.path, rbpOpt)
		}
	})
	bd.forIncumbentPaths(p, reachS, reachT, func() {
		galsPaths++
		if lat, ok := bd.latAlongPath(p, c.Ts, c.Tt); ok && (galsOpt == nil || lat < galsOpt.Latency-latencyEps) {
			t.Errorf("instance %d: GALS incumbent %g ps on path %v undercuts the optimum %+v", idx, lat, bd.path, galsOpt)
		}
	})
	return rbpPaths > 1 || galsPaths > 1
}

// TestKernelEquivalenceSweep is the reduced always-on gate; the full
// ≥500-instance sweep lives behind the slowtest build tag (make sweep).
func TestKernelEquivalenceSweep(t *testing.T) {
	kernelEquivalenceSweep(t, 20260807, 60, randomSweepCase)
	if raceEnabled {
		// The kernels are single-goroutine, so the race build adds nothing
		// here but a ~30× slowdown; the plain and shuffled passes and make
		// sweep run the block-heavy stream.
		return
	}
	if n := kernelEquivalenceSweep(t, 20261017, 10, randomBlockSweepCase); n == 0 {
		t.Error("no block-heavy instance evaluated an insertion-aware incumbent path")
	}
}
