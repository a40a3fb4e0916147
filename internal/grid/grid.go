// Package grid implements the routing grid graph G(V,E) of the fast-path
// framework: a W×H lattice of potential insertion points with uniform pitch,
// supporting the two blockage types of the paper plus the register-blockage
// extension mentioned in Section III.
//
//   - A physical obstacle (circuit blockage: an IP macro, a datapath) labels
//     its nodes p(v)=0 — routing wires over the block is allowed, but no
//     buffer or synchronization element may be inserted there.
//   - A wiring blockage deletes grid edges — the route cannot pass through.
//   - A register blockage (extension) forbids only clocked elements, e.g.
//     where routing the clock would cause congestion; buffers remain legal.
//
// Nodes are identified by dense integer IDs (row-major), which the search
// algorithms use to index flat arrays.
package grid

import (
	"fmt"

	"clockroute/internal/geom"
)

// Dir enumerates the four lattice directions.
type Dir int

// The four grid directions, used as bit positions in the edge-cut masks.
const (
	East Dir = iota
	West
	North
	South
)

var dirDelta = [4]geom.Point{
	East:  {X: 1, Y: 0},
	West:  {X: -1, Y: 0},
	North: {X: 0, Y: 1},
	South: {X: 0, Y: -1},
}

// opposite[d] is the reverse direction of d.
var opposite = [4]Dir{East: West, West: East, North: South, South: North}

// Grid is the routing graph. The zero value is not usable; construct with
// New. Grids are mutable until handed to a router; the search algorithms
// only read them, so a single Grid may back many concurrent searches.
type Grid struct {
	w, h    int
	pitchMM float64

	// obstacle[v] reports p(v)=0: no gate insertion at v.
	obstacle []bool
	// regBlocked[v] forbids clocked elements (registers, MCFIFOs) at v.
	regBlocked []bool
	// cut[v] is a bitmask of deleted edges leaving v (bit = Dir).
	// Maintained symmetrically with the neighbor's mask.
	cut []uint8
}

// New returns an empty (unblocked) w×h grid with the given pitch in mm.
func New(w, h int, pitchMM float64) (*Grid, error) {
	if w < 2 || h < 1 {
		return nil, fmt.Errorf("grid: need at least 2x1 nodes, got %dx%d", w, h)
	}
	if pitchMM <= 0 {
		return nil, fmt.Errorf("grid: non-positive pitch %g mm", pitchMM)
	}
	n := w * h
	return &Grid{
		w: w, h: h, pitchMM: pitchMM,
		obstacle:   make([]bool, n),
		regBlocked: make([]bool, n),
		cut:        make([]uint8, n),
	}, nil
}

// MustNew is New but panics on error; for tests and fixed configurations.
func MustNew(w, h int, pitchMM float64) *Grid {
	g, err := New(w, h, pitchMM)
	if err != nil {
		panic(err)
	}
	return g
}

// W returns the number of columns.
func (g *Grid) W() int { return g.w }

// H returns the number of rows.
func (g *Grid) H() int { return g.h }

// PitchMM returns the grid pitch (edge length) in millimeters.
func (g *Grid) PitchMM() float64 { return g.pitchMM }

// NumNodes returns |V|.
func (g *Grid) NumNodes() int { return g.w * g.h }

// Bounds returns the rectangle of valid grid points.
func (g *Grid) Bounds() geom.Rect { return geom.Rect{MaxX: g.w, MaxY: g.h} }

// ID converts a point to its dense node ID. The point must be in bounds.
func (g *Grid) ID(p geom.Point) int {
	if !g.InBounds(p) {
		panic(fmt.Sprintf("grid: point %v out of %dx%d bounds", p, g.w, g.h))
	}
	return p.Y*g.w + p.X
}

// At converts a node ID back to its grid point.
func (g *Grid) At(id int) geom.Point {
	return geom.Point{X: id % g.w, Y: id / g.w}
}

// InBounds reports whether p is a valid grid point.
func (g *Grid) InBounds(p geom.Point) bool {
	return p.X >= 0 && p.X < g.w && p.Y >= 0 && p.Y < g.h
}

// PosMM returns the physical position of node id in millimeters.
func (g *Grid) PosMM(id int) geom.MM {
	p := g.At(id)
	return geom.MM{X: float64(p.X) * g.pitchMM, Y: float64(p.Y) * g.pitchMM}
}

// Insertable reports p(v)=1: a gate may be placed at v.
func (g *Grid) Insertable(id int) bool { return !g.obstacle[id] }

// RegisterInsertable reports whether a clocked element may be placed at v.
// It implies Insertable.
func (g *Grid) RegisterInsertable(id int) bool {
	return !g.obstacle[id] && !g.regBlocked[id]
}

// HasEdge reports whether the edge leaving u in direction d exists.
func (g *Grid) HasEdge(u int, d Dir) bool {
	if g.cut[u]&(1<<uint(d)) != 0 {
		return false
	}
	return g.InBounds(g.At(u).Add(dirDelta[d]))
}

// Neighbor returns the node adjacent to u in direction d and whether the
// connecting edge exists.
func (g *Grid) Neighbor(u int, d Dir) (int, bool) {
	if !g.HasEdge(u, d) {
		return 0, false
	}
	return g.ID(g.At(u).Add(dirDelta[d])), true
}

// ForNeighbors calls fn for every node adjacent to u through a live edge.
func (g *Grid) ForNeighbors(u int, fn func(v int)) {
	p := g.At(u)
	m := g.cut[u]
	for d := East; d <= South; d++ {
		if m&(1<<uint(d)) != 0 {
			continue
		}
		q := p.Add(dirDelta[d])
		if q.X < 0 || q.X >= g.w || q.Y < 0 || q.Y >= g.h {
			continue
		}
		fn(q.Y*g.w + q.X)
	}
}

// Degree returns the number of live edges at u.
func (g *Grid) Degree(u int) int {
	n := 0
	g.ForNeighbors(u, func(int) { n++ })
	return n
}

// NumEdges returns |E| (each undirected edge counted once).
func (g *Grid) NumEdges() int {
	total := 0
	for u := 0; u < g.NumNodes(); u++ {
		if g.HasEdge(u, East) {
			total++
		}
		if g.HasEdge(u, North) {
			total++
		}
	}
	return total
}

// AddObstacle marks every node inside r (clipped to the grid) as a physical
// obstacle: wires may pass, gates may not be inserted.
func (g *Grid) AddObstacle(r geom.Rect) {
	r.Intersect(g.Bounds()).Points(func(p geom.Point) {
		g.obstacle[g.ID(p)] = true
	})
}

// AddRegisterBlockage forbids clocked elements inside r (clipped); plain
// buffers remain legal. This is the register-blockage extension of
// Section III.
func (g *Grid) AddRegisterBlockage(r geom.Rect) {
	r.Intersect(g.Bounds()).Points(func(p geom.Point) {
		g.regBlocked[g.ID(p)] = true
	})
}

// AddWiringBlockage deletes every edge incident to a node inside r
// (clipped): routes can neither pass through nor terminate inside the
// blocked region.
func (g *Grid) AddWiringBlockage(r geom.Rect) {
	r.Intersect(g.Bounds()).Points(func(p geom.Point) {
		u := g.ID(p)
		for d := East; d <= South; d++ {
			g.CutEdge(u, d)
		}
	})
}

// CutEdge deletes the single edge leaving u in direction d (and its mirror
// at the neighbor). Cutting a nonexistent boundary edge is a no-op.
func (g *Grid) CutEdge(u int, d Dir) {
	q := g.At(u).Add(dirDelta[d])
	if !g.InBounds(q) {
		return
	}
	g.cut[u] |= 1 << uint(d)
	g.cut[g.ID(q)] |= 1 << uint(opposite[d])
}

// BFS returns the edge-count distance from src to every node, or -1 where
// unreachable. It respects wiring blockages but not obstacles (obstacles
// allow through-routing).
func (g *Grid) BFS(src int) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.NumNodes())
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.ForNeighbors(u, func(v int) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		})
	}
	return dist
}

// Reachable reports whether t can be reached from s through live edges.
func (g *Grid) Reachable(s, t int) bool { return g.BFS(s)[t] >= 0 }
