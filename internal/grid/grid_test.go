package grid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clockroute/internal/geom"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 1, 0.5); err == nil {
		t.Error("1x1 grid should be rejected")
	}
	if _, err := New(10, 10, 0); err == nil {
		t.Error("zero pitch should be rejected")
	}
	if _, err := New(10, 10, -1); err == nil {
		t.Error("negative pitch should be rejected")
	}
	g, err := New(3, 4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if g.W() != 3 || g.H() != 4 || g.PitchMM() != 0.25 {
		t.Errorf("dims = %dx%d pitch %g", g.W(), g.H(), g.PitchMM())
	}
	if g.NumNodes() != 12 {
		t.Errorf("NumNodes = %d, want 12", g.NumNodes())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad args should panic")
		}
	}()
	MustNew(0, 0, 1)
}

func TestIDRoundTrip(t *testing.T) {
	g := MustNew(7, 5, 1)
	for y := 0; y < 5; y++ {
		for x := 0; x < 7; x++ {
			p := geom.Pt(x, y)
			if got := g.At(g.ID(p)); got != p {
				t.Fatalf("At(ID(%v)) = %v", p, got)
			}
		}
	}
}

func TestIDPanicsOutOfBounds(t *testing.T) {
	g := MustNew(3, 3, 1)
	defer func() {
		if recover() == nil {
			t.Error("ID out of bounds should panic")
		}
	}()
	g.ID(geom.Pt(3, 0))
}

func TestPosMM(t *testing.T) {
	g := MustNew(10, 10, 0.125)
	pos := g.PosMM(g.ID(geom.Pt(4, 8)))
	if pos.X != 0.5 || pos.Y != 1.0 {
		t.Errorf("PosMM = %+v, want (0.5, 1.0)", pos)
	}
}

func TestEdgeCountFullGrid(t *testing.T) {
	g := MustNew(4, 3, 1)
	// 4x3 grid: horizontal edges 3*3=9, vertical edges 4*2=8.
	if got := g.NumEdges(); got != 17 {
		t.Errorf("NumEdges = %d, want 17", got)
	}
	// |E| <= 4n as assumed by the complexity analysis.
	if g.NumEdges() > 4*g.NumNodes() {
		t.Error("edge bound violated")
	}
}

func TestNeighborsInterior(t *testing.T) {
	g := MustNew(5, 5, 1)
	u := g.ID(geom.Pt(2, 2))
	if g.Degree(u) != 4 {
		t.Errorf("interior degree = %d, want 4", g.Degree(u))
	}
	corner := g.ID(geom.Pt(0, 0))
	if g.Degree(corner) != 2 {
		t.Errorf("corner degree = %d, want 2", g.Degree(corner))
	}
	edge := g.ID(geom.Pt(2, 0))
	if g.Degree(edge) != 3 {
		t.Errorf("boundary degree = %d, want 3", g.Degree(edge))
	}
}

func TestNeighborDirections(t *testing.T) {
	g := MustNew(5, 5, 1)
	u := g.ID(geom.Pt(2, 2))
	for _, c := range []struct {
		d    Dir
		want geom.Point
	}{
		{East, geom.Pt(3, 2)},
		{West, geom.Pt(1, 2)},
		{North, geom.Pt(2, 3)},
		{South, geom.Pt(2, 1)},
	} {
		v, ok := g.Neighbor(u, c.d)
		if !ok {
			t.Fatalf("Neighbor(%v) missing", c.d)
		}
		if g.At(v) != c.want {
			t.Errorf("Neighbor(%v) = %v, want %v", c.d, g.At(v), c.want)
		}
	}
	if _, ok := g.Neighbor(g.ID(geom.Pt(0, 0)), West); ok {
		t.Error("west neighbor of (0,0) should not exist")
	}
}

func TestCutEdgeSymmetry(t *testing.T) {
	g := MustNew(5, 5, 1)
	u := g.ID(geom.Pt(2, 2))
	v := g.ID(geom.Pt(3, 2))
	g.CutEdge(u, East)
	if g.HasEdge(u, East) {
		t.Error("edge should be cut")
	}
	if g.HasEdge(v, West) {
		t.Error("mirror edge should be cut")
	}
	if g.Degree(u) != 3 || g.Degree(v) != 3 {
		t.Errorf("degrees after cut = %d,%d", g.Degree(u), g.Degree(v))
	}
	// Cutting a boundary edge is a no-op and must not panic.
	g.CutEdge(g.ID(geom.Pt(0, 0)), West)
}

func TestObstacleAllowsRoutingForbidsInsertion(t *testing.T) {
	g := MustNew(10, 10, 1)
	g.AddObstacle(geom.R(3, 3, 6, 6))
	blocked := g.ID(geom.Pt(4, 4))
	if g.Insertable(blocked) {
		t.Error("node inside obstacle must not be insertable")
	}
	if g.RegisterInsertable(blocked) {
		t.Error("node inside obstacle must not accept registers")
	}
	// Routing straight through the obstacle must remain possible.
	s, tt := g.ID(geom.Pt(0, 4)), g.ID(geom.Pt(9, 4))
	if d := g.BFS(s)[tt]; d != 9 {
		t.Errorf("distance through obstacle = %d, want 9", d)
	}
	outside := g.ID(geom.Pt(0, 0))
	if !g.Insertable(outside) {
		t.Error("node outside obstacle must stay insertable")
	}
}

func TestRegisterBlockage(t *testing.T) {
	g := MustNew(10, 10, 1)
	g.AddRegisterBlockage(geom.R(2, 2, 4, 4))
	v := g.ID(geom.Pt(3, 3))
	if !g.Insertable(v) {
		t.Error("register blockage must keep buffers legal")
	}
	if g.RegisterInsertable(v) {
		t.Error("register blockage must forbid registers")
	}
}

func TestWiringBlockageBlocksRouting(t *testing.T) {
	g := MustNew(10, 10, 1)
	// Full-height wall at column 5.
	g.AddWiringBlockage(geom.R(5, 0, 6, 10))
	s, tt := g.ID(geom.Pt(0, 5)), g.ID(geom.Pt(9, 5))
	if g.Reachable(s, tt) {
		t.Error("wall should disconnect the two halves")
	}
	inside := g.ID(geom.Pt(5, 5))
	if g.Degree(inside) != 0 {
		t.Errorf("node inside wiring blockage has degree %d, want 0", g.Degree(inside))
	}
}

func TestWiringBlockageDetour(t *testing.T) {
	g := MustNew(10, 10, 1)
	// Wall at column 5 leaving a gap at the top row.
	g.AddWiringBlockage(geom.R(5, 0, 6, 9))
	s, tt := g.ID(geom.Pt(0, 5)), g.ID(geom.Pt(9, 5))
	d := g.BFS(s)[tt]
	// Detour: up to row 9, across, back down: 4 + 9 + 4 = 17.
	if d != 17 {
		t.Errorf("detour distance = %d, want 17", d)
	}
}

func TestBlockagesClipToBounds(t *testing.T) {
	g := MustNew(4, 4, 1)
	g.AddObstacle(geom.R(-5, -5, 100, 2))           // clips to rows 0,1
	g.AddWiringBlockage(geom.R(100, 100, 200, 200)) // fully outside: no-op
	if g.Insertable(g.ID(geom.Pt(0, 0))) {
		t.Error("clipped obstacle should cover (0,0)")
	}
	if !g.Insertable(g.ID(geom.Pt(0, 2))) {
		t.Error("row 2 should be clear")
	}
	if g.NumEdges() != 24 {
		t.Errorf("out-of-bounds wiring blockage changed edges: %d", g.NumEdges())
	}
}

func TestBFSDistancesMatchManhattanOnOpenGrid(t *testing.T) {
	g := MustNew(8, 6, 1)
	src := geom.Pt(2, 3)
	dist := g.BFS(g.ID(src))
	for id, d := range dist {
		if want := g.At(id).Manhattan(src); d != want {
			t.Fatalf("dist[%v] = %d, want %d", g.At(id), d, want)
		}
	}
}

// Property: neighbor relation is symmetric under arbitrary random edge cuts.
func TestNeighborSymmetryUnderRandomCuts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := MustNew(6, 6, 1)
		for i := 0; i < 20; i++ {
			u := rng.Intn(g.NumNodes())
			g.CutEdge(u, Dir(rng.Intn(4)))
		}
		for u := 0; u < g.NumNodes(); u++ {
			ok := true
			g.ForNeighbors(u, func(v int) {
				found := false
				g.ForNeighbors(v, func(w int) {
					if w == u {
						found = true
					}
				})
				if !found {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: BFS distance never exceeds Manhattan-lower-bounded paths and is
// -1 exactly when unreachable; distances along edges differ by at most 1.
func TestBFSIsMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := MustNew(7, 7, 1)
		for i := 0; i < 25; i++ {
			g.CutEdge(rng.Intn(g.NumNodes()), Dir(rng.Intn(4)))
		}
		src := rng.Intn(g.NumNodes())
		dist := g.BFS(src)
		if dist[src] != 0 {
			return false
		}
		for u := 0; u < g.NumNodes(); u++ {
			if dist[u] >= 0 && dist[u] < g.At(u).Manhattan(g.At(src)) {
				return false // beat the Manhattan lower bound
			}
			du := dist[u]
			bad := false
			g.ForNeighbors(u, func(v int) {
				dv := dist[v]
				if (du == -1) != (dv == -1) {
					bad = true // connected nodes must share reachability
				} else if du >= 0 && abs(du-dv) > 1 {
					bad = true
				}
			})
			if bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
