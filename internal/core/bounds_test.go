package core

import (
	"testing"

	"clockroute/internal/geom"
	"clockroute/internal/grid"
)

// blockedProblem routes across a 41×9 die at 0.5 mm pitch with a block 14
// nodes wide (x 14–27) across the straight route and a two-row channel
// (rows 7–8) above it: the BFS path crosses a span with no register site
// that is wider than a segment's reach at SoC periods.
func blockedProblem(t *testing.T) *Problem {
	t.Helper()
	g := grid.MustNew(41, 9, 0.5)
	g.AddObstacle(geom.R(14, 0, 28, 7))
	return problemOn(t, g, geom.Pt(0, 2), geom.Pt(40, 2))
}

// TestGapPath pins the insertion-aware path search: on a die whose block
// is wider than the gap budget the path climbs around it, every run of
// site-free edges stays within G, and the path is as short as any that
// meets the budget; with a budget the straight path already meets, the
// straight path comes back.
func TestGapPath(t *testing.T) {
	p := blockedProblem(t)
	g := p.Grid
	b := new(Scratch).PrepBounds(p)
	for _, tc := range []struct{ G, edges int }{
		{4, 50}, // up five rows to the channel and back down
		{8, 50},
		{14, 50}, // 15 site-free edges straight across: still one too many
		{15, 40}, // the straight BFS-length path fits
	} {
		if !b.gapPath(p, tc.G) {
			t.Fatalf("G=%d: no path found", tc.G)
		}
		path := b.path
		if int(path[0]) != p.Sink || int(path[len(path)-1]) != p.Source {
			t.Fatalf("G=%d: path runs %d → %d, want sink %d → source %d",
				tc.G, path[0], path[len(path)-1], p.Sink, p.Source)
		}
		if len(path)-1 != tc.edges {
			t.Errorf("G=%d: %d edges, want %d", tc.G, len(path)-1, tc.edges)
		}
		seen := map[int32]bool{}
		for i, v := range path {
			if seen[v] {
				t.Fatalf("G=%d: node %v revisited", tc.G, g.At(int(v)))
			}
			seen[v] = true
			if i > 0 && g.At(int(v)).Manhattan(g.At(int(path[i-1]))) != 1 {
				t.Fatalf("G=%d: %v and %v are not adjacent", tc.G, g.At(int(path[i-1])), g.At(int(v)))
			}
		}
		if gap := b.pathMaxGap(p); gap > tc.G {
			t.Errorf("G=%d: path has %d consecutive site-free edges", tc.G, gap)
		}
	}
}

// TestGapPathRejectsRevisit builds a corridor whose only register site is
// a one-node pocket beside it: with G=4 the only walk that meets the
// budget steps into the pocket and back out through the node it came
// from. The segment DPs assume a simple path, so gapPath must refuse it;
// with G=6 the straight corridor meets the budget on its own.
func TestGapPathRejectsRevisit(t *testing.T) {
	g := grid.MustNew(7, 2, 0.5)
	g.AddObstacle(geom.R(1, 0, 6, 1))       // corridor interior: no sites
	g.AddWiringBlockage(geom.R(0, 1, 3, 2)) // row 1 is cut off ...
	g.AddWiringBlockage(geom.R(4, 1, 7, 2)) // ... except the pocket (3,1)
	p := problemOn(t, g, geom.Pt(0, 0), geom.Pt(6, 0))
	b := new(Scratch).PrepBounds(p)
	if b.gapPath(p, 4) {
		t.Errorf("G=4: accepted a path through the pocket: %v", b.path)
	}
	if !b.gapPath(p, 6) || len(b.path) != 7 {
		t.Errorf("G=6: want the 6-edge corridor, got %v", b.path)
	}
}
