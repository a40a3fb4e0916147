package core

import (
	"math"
	"time"

	"clockroute/internal/candidate"
	"clockroute/internal/elmore"
	"clockroute/internal/grid"
	"clockroute/internal/tech"
)

// This file implements the A*-style admissible pruning layer shared by the
// search kernels. Three ingredients combine into a bound test applied to
// every candidate before it enters a Pareto store or heap:
//
//  1. BFS distance fields over the grid (to the source and to the sink),
//     computed once per search on pooled scratch memory. The search grows
//     backward from the sink, so dist(v, source) counts the grid edges any
//     completion of a candidate at v must still cross.
//  2. A per-period segment reach N: the maximum number of grid edges one
//     clocked-to-clocked segment can span under period T (a capped Pareto
//     DP along an ideal unobstructed line — obstacles only remove buffer
//     sites, so a real segment can never span more). dist and N convert
//     into a lower bound on the registers (RBP), delay (FastPath), or
//     latency (GALS, latch) any completion must still pay.
//  3. An incumbent: a feasible solution cost U obtained cheaply before the
//     main search, against which the lower bounds prune. The primary probe
//     runs the exact segment DP along a small fixed set of paths
//     (microseconds each): one BFS shortest path and, when that path crosses
//     a span with no register site, a few insertion-aware shortest paths on
//     which no more than G consecutive edges pass without one (gapPath).
//     When no path admits a feasible labeling — blockages, infeasible
//     period — a bounded search-window probe (the same kernel restricted to
//     a corridor of near-shortest paths, on a small config budget) tries to
//     find one. If neither yields an incumbent the search falls back to the
//     plain exact expansion with only reachability/period pruning: bounds
//     never cost feasibility.
//
// Exactness contract: every prune predicate is monotone in the store's
// dominance order at a fixed (node, wave) — if a candidate is pruned, any
// candidate it would have dominated is pruned too. Combined with the
// value-ordered heaps (pqueue.Heap.Tie) this makes the bounded kernel's
// surviving candidate set and pop order identical to the unbounded
// kernel's, so routed results match bit for bit. DESIGN.md ("Search
// kernel") carries the full argument.

// boundEps pads incumbent comparisons so float rounding in the precomputed
// bound (one multiply) versus the kernel's incremental accumulation can
// never prune a candidate that ties the incumbent. Relative to the
// incumbent's magnitude; genuine cost differences are many orders larger.
func boundEps(u float64) float64 { return 1e-6 * (1 + math.Abs(u)) }

// noIncumbent marks "no feasible upper bound found" for integer wave bounds.
const noIncumbent = math.MaxInt32 / 2

// windowSlack widens the probe corridor beyond the shortest source-sink
// distance: nodes with distSrc+distSink ≤ dist0+windowSlack participate.
// Even, because grid detours change path length in steps of two.
const windowSlack = 4

// probeBudgetBase / probeBudgetPerEdge bound the windowed probe's configs:
// the probe is a bet, and a lost bet must cost a bounded fraction of the
// exact search it precedes.
const (
	probeBudgetBase    = 2048
	probeBudgetPerEdge = 32
)

// Bounds is the per-search admissible lower-bound state, pooled on Scratch
// (PrepBounds). Exported because the latch router borrows it through
// core.Scratch exactly like the in-package kernels.
type Bounds struct {
	// distSrc and distSink are read-only views for the current search: they
	// alias either the pooled ownSrc/ownSink buffers (uncached runs) or
	// immutable fields published by a plan-scoped ShareCache. Writers must
	// target ownSrc/ownSink, never the views — growing a view in place
	// could recycle a shared field as scratch and corrupt concurrent
	// searches reading it.
	distSrc  []int32 // BFS edge distance from the source; -1 unreachable
	distSink []int32 // BFS edge distance from the sink; -1 unreachable
	maxSrc   int32   // largest finite distSrc entry
	ownSrc   []int32 // pooled storage behind distSrc on uncached runs
	ownSink  []int32 // pooled storage behind distSink on uncached runs
	queue    []int32 // BFS worklist, reused by both passes

	// Segment-DP buffers (segmentReach, regsAlongPath, latAlongPath,
	// pathMinDelay).
	fa, fb []segState
	path   []int32   // the incumbent path under evaluation, sink first
	seedsA []int32   // wave seed positions (current wave)
	seedsB []int32   // wave seed positions (next wave)
	fifoK  []int32   // latAlongPath: fewest sink-side registers per FIFO site
	rem    []float64 // remTable: remaining-delay lower bound by distance

	// Insertion-aware path search (gapPath).
	gapBest []int32    // smallest gap each node was reached with; -1 = on the path
	gapQ    []gapState // BFS worklist, doubling as the parent links
}

// segState is one Pareto point of the segment DP.
type segState struct{ c, d float64 }

// gapState is one (node, gap) state of gapPath's BFS; parent indexes the
// worklist entry it was reached from (-1 at the origin).
type gapState struct{ node, gap, parent int32 }

// PrepBounds computes the BFS distance fields for p on s's pooled bounds
// memory and returns them. Steady state this allocates nothing: the int32
// fields and DP buffers are retained across searches like every other
// Scratch resource.
func (s *Scratch) PrepBounds(p *Problem) *Bounds {
	b := &s.bounds
	n := p.Grid.NumNodes()
	b.ownSrc = grow(b.ownSrc, n)
	b.ownSink = grow(b.ownSink, n)
	b.maxSrc = b.bfs(p, p.Source, b.ownSrc)
	b.bfs(p, p.Sink, b.ownSink)
	b.distSrc, b.distSink = b.ownSrc, b.ownSink
	return b
}

// prepBoundsShared is PrepBounds routed through a plan-scoped ShareCache:
// the BFS distance fields for each endpoint are computed once per (grid,
// origin) across the whole plan and shared read-only between searches. BFS
// is model-independent, so the fields are reusable across the planner's
// width ladder as well as across nets. Falls back to a private PrepBounds
// when sh is nil or owns a different grid.
func (s *Scratch) prepBoundsShared(p *Problem, sh *ShareCache) *Bounds {
	if sh == nil || !sh.owns(p.Grid) {
		return s.PrepBounds(p)
	}
	b := &s.bounds
	fs := sh.field(p, p.Source, b)
	ft := sh.field(p, p.Sink, b)
	b.distSrc, b.distSink, b.maxSrc = fs.dist, ft.dist, fs.maxD
	return b
}

// grow resizes sl to exactly n entries, reusing capacity.
func grow(sl []int32, n int) []int32 {
	if cap(sl) < n {
		return make([]int32, n)
	}
	return sl[:n]
}

// bfs fills dist with edge distances from src (-1 = unreachable) and
// returns the largest finite distance. Edges follow grid.ForNeighbors, the
// same adjacency every kernel expands over, so reachability here is
// reachability there.
func (b *Bounds) bfs(p *Problem, src int, dist []int32) int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := b.queue[:0]
	q = append(q, int32(src))
	var maxD int32
	// Ring-free worklist: head indexes into q, which only grows; the
	// direction loop avoids a per-node closure so a steady-state BFS
	// allocates nothing (the worklist's capacity is retained on b).
	for head := 0; head < len(q); head++ {
		u := int(q[head])
		du := dist[u] + 1
		for d := grid.East; d <= grid.South; d++ {
			if v, ok := p.Grid.Neighbor(u, d); ok && dist[v] == -1 {
				dist[v] = du
				if du > maxD {
					maxD = du
				}
				q = append(q, int32(v))
			}
		}
	}
	b.queue = q[:0]
	return maxD
}

// DistToSource returns the BFS edge distance from node v to the search's
// source (-1 when unreachable).
func (b *Bounds) DistToSource(v int32) int32 { return b.distSrc[v] }

// DistToSink returns the BFS edge distance from node v to the sink.
func (b *Bounds) DistToSink(v int32) int32 { return b.distSink[v] }

// MinEdgeDelay returns the smallest Elmore delay a single grid edge can add
// to any candidate: edgeR·edgeC/2, the wire term at zero downstream load.
func MinEdgeDelay(m *elmore.Model) float64 { return m.EdgeR() * m.EdgeC() / 2 }

// segmentReach returns an upper bound on the number of grid edges one
// clocked-to-clocked segment can span under period T. The segment starts
// from a register (or, when start2 is non-nil — GALS's FIFO — the
// componentwise-min seed over both) and a state stays viable while its
// delay potential d + closeMinR·c can still fit under T − closeK, which is
// exactly RBP's lookahead theorem: every continuation's closing delay is at
// least closeK + that potential, monotonically in edges and gates, so
// states failing the test belong to no closeable segment — and states of
// any kernel-closeable segment pass it. The DP runs along an ideal line
// with buffers available at every step; a real grid segment threads
// obstacles that only remove buffer options, so its span can never exceed
// the ideal one. The scan is capped at maxReach edges (distances beyond the
// grid's diameter never matter), so huge periods cost O(maxReach) instead
// of exploding.
func (b *Bounds) segmentReach(m *elmore.Model, T float64, maxReach int, start2 *tech.Element, closeK, closeMinR float64) int {
	tc := m.Tech()
	reg := tc.Register
	c0, d0 := reg.C, reg.Setup
	if start2 != nil {
		c0 = math.Min(c0, start2.C)
		d0 = math.Min(d0, start2.Setup)
	}
	limit := T - closeK
	cur := b.fa[:0]
	if d0+closeMinR*c0 <= limit {
		cur = append(cur, segState{c0, d0})
	}
	next := b.fb[:0]
	reach := 0
	for j := 1; j <= maxReach && len(cur) > 0; j++ {
		next = next[:0]
		for _, s := range cur {
			c2, d2 := m.AddEdge(s.c, s.d)
			if d2+closeMinR*c2 <= limit {
				next = appendState(next, segState{c2, d2})
			}
			for bi := range tc.Buffers {
				bu := tc.Buffers[bi]
				cg, dg := m.AddGate(bu, c2, d2)
				if dg+closeMinR*cg <= limit {
					next = appendState(next, segState{cg, dg})
				}
			}
		}
		if len(next) > 0 {
			reach = j
		}
		cur, next = next, cur
	}
	// Return the swap-scrambled buffers to b truncated, in either order.
	b.fa, b.fb = cur[:0], next[:0]
	return reach
}

// appendState adds s to the Pareto frontier st: dropped if an existing
// entry dominates (or equals) it, otherwise appended with the entries it
// dominates removed. The full dominance scan runs before the compaction so
// the in-place filter never reads an already-overwritten slot.
func appendState(st []segState, s segState) []segState {
	for _, o := range st {
		if o.c <= s.c && o.d <= s.d {
			return st
		}
	}
	out := st[:0]
	for _, o := range st {
		if !(s.c <= o.c && s.d <= o.d) {
			out = append(out, o)
		}
	}
	return append(out, s)
}

// shortestPath reconstructs one BFS shortest path from the sink to the
// source into b.path (sink first). Among equally-near neighbors the lowest
// node ID wins, so the path is deterministic. Returns false when the source
// is unreachable.
func (b *Bounds) shortestPath(p *Problem) bool {
	d0 := b.distSrc[p.Sink]
	if d0 < 0 {
		return false
	}
	b.path = b.path[:0]
	u := p.Sink
	b.path = append(b.path, int32(u))
	for b.distSrc[u] > 0 {
		next := -1
		want := b.distSrc[u] - 1
		for d := grid.East; d <= grid.South; d++ {
			if v, ok := p.Grid.Neighbor(u, d); ok && b.distSrc[v] == want && (next == -1 || v < next) {
				next = v
			}
		}
		if next == -1 {
			return false // cannot happen on a consistent BFS field
		}
		u = next
		b.path = append(b.path, int32(u))
	}
	return true
}

// pathMaxGap returns the longest run of consecutive edges on b.path with no
// register site between them. The endpoints count as sites: they hold the
// port registers.
func (b *Bounds) pathMaxGap(p *Problem) int {
	last := len(b.path) - 1
	maxGap, run := 0, 0
	for pos := 1; pos <= last; pos++ {
		run++
		if pos == last || p.Grid.RegisterInsertable(int(b.path[pos])) {
			maxGap = max(maxGap, run)
			run = 0
		}
	}
	return maxGap
}

// incumbentGaps lists the gap budgets G for which pathMinRegs and
// pathMinLat evaluate an insertion-aware path besides the BFS one: a few
// small fixed budgets, which force frequent register sites, plus each
// domain's segment reach, the loosest budget a labeling can meet. Budgets
// the BFS path already meets (G ≥ maxGap) would only return another path
// of the same length, and budgets above both reaches allow site-free runs
// no segment can span, so both are skipped — on an open die, whose BFS
// path has a site at every node, the list is empty and the extra paths
// cost nothing.
func incumbentGaps(maxGap, reachA, reachB int) ([5]int, int) {
	var out [5]int
	n := 0
	limit := min(maxGap-1, max(reachA, reachB))
	for _, G := range [...]int{4, 6, 8, reachA, reachB} {
		if G < 1 || G > limit {
			continue
		}
		dup := false
		for _, o := range out[:n] {
			dup = dup || o == G
		}
		if !dup {
			out[n] = G
			n++
		}
	}
	return out, n
}

// gapPath fills b.path (sink first) with a shortest source-sink path on
// which no more than G consecutive edges pass without a register site
// (RegisterInsertable interior nodes; the endpoints count as sites). This
// is the buffered-routing constraint of Albrecht et al.: a path is only
// usable if insertion sites occur within the maximum span between them,
// and a BFS shortest path that runs straight over an IP block wider than a
// segment's reach violates it.
//
// The search is a BFS over (node, gap) states, gap being the edges since
// the last site. BFS pops states in distance order, so a state is
// dominated by any earlier visit of its node with a gap no larger: each
// node re-enters the worklist only when its gap strictly improves, at most
// G+1 times. Returns false when no such path exists, and when the shortest
// one revisits a node — the segment DPs assume a simple path (one register
// per node per domain, one FIFO per node, as the kernels mark).
func (b *Bounds) gapPath(p *Problem, G int) bool {
	g := p.Grid
	best := grow(b.gapBest, g.NumNodes())
	for i := range best {
		best[i] = math.MaxInt32
	}
	b.gapBest = best
	best[p.Source] = 0
	q := append(b.gapQ[:0], gapState{int32(p.Source), 0, -1})
	goal := -1
	for head := 0; head < len(q) && goal < 0; head++ {
		s := q[head]
		gap := s.gap + 1
		if int(gap) > G {
			continue
		}
		for d := grid.East; d <= grid.South; d++ {
			v, ok := g.Neighbor(int(s.node), d)
			if !ok {
				continue
			}
			if v == p.Sink {
				goal = len(q)
				q = append(q, gapState{int32(v), 0, int32(head)})
				break
			}
			gv := gap
			if g.RegisterInsertable(v) {
				gv = 0
			}
			if gv >= best[v] {
				continue
			}
			best[v] = gv
			q = append(q, gapState{int32(v), gv, int32(head)})
		}
	}
	b.gapQ = q[:0]
	if goal < 0 {
		return false
	}
	// Walk the parent links from the sink back to the source, marking each
	// node -1 (BFS left every entry ≥ 0) to detect a revisit.
	b.path = b.path[:0]
	for i := int32(goal); i >= 0; i = q[i].parent {
		v := q[i].node
		if best[v] == -1 {
			return false
		}
		best[v] = -1
		b.path = append(b.path, v)
	}
	return true
}

// forIncumbentPaths loads each path of the incumbent path set into b.path
// in turn and calls eval on it: the BFS shortest path, then, when that
// path crosses a span with no register site, the insertion-aware path of
// each budget incumbentGaps lists for the segment reaches reachA/reachB.
func (b *Bounds) forIncumbentPaths(p *Problem, reachA, reachB int, eval func()) {
	if !b.shortestPath(p) {
		return
	}
	eval()
	gaps, n := incumbentGaps(b.pathMaxGap(p), reachA, reachB)
	for _, G := range gaps[:n] {
		if b.gapPath(p, G) {
			eval()
		}
	}
}

// pathMinRegs returns the fewest registers of a feasible RBP labeling over
// the incumbent path set, or ok=false when no path admits one. reach is
// the period's segment reach.
func (b *Bounds) pathMinRegs(p *Problem, T float64, reach int) (best int, ok bool) {
	b.forIncumbentPaths(p, reach, reach, func() {
		if w, wok := b.regsAlongPath(p, T); wok && (!ok || w < best) {
			best, ok = w, true
		}
	})
	return best, ok
}

// regsAlongPath runs RBP's exact segment DP along b.path and returns the
// minimum register count of a feasible labeling of that path, or ok=false
// when the path admits none (blocked insertion sites or an infeasible
// period). Every labeling the DP accepts is a real solution the kernel can
// reach — gates only at insertable interior nodes, at most one per node
// (b.path is simple), every segment closed by a register within T, every
// intermediate state passing the kernel's own lookahead — so the returned
// count is a sound incumbent for wave pruning. Cost is O(len·frontier).
func (b *Bounds) regsAlongPath(p *Problem, T float64) (int, bool) {
	g, m := p.Grid, p.Model
	tc := p.tech()
	reg := tc.Register
	minR := tc.MinBufferR()
	limit := T - reg.K
	last := len(b.path) - 1
	maxWaves := len(b.path) // one register per interior node at most

	seeds := append(b.seedsA[:0], 0) // wave 0 starts at the sink, position 0
	nextSeeds := b.seedsB[:0]
	cur, step := b.fa[:0], b.fb[:0]
	done := func(w int, ok bool) (int, bool) {
		b.fa, b.fb = cur[:0], step[:0]
		b.seedsA, b.seedsB = seeds[:0], nextSeeds[:0]
		return w, ok
	}
	for w := 0; w < maxWaves; w++ {
		nextSeeds = nextSeeds[:0]
		cur = cur[:0]
		si := 0
		for pos := 0; pos <= last; pos++ {
			u := int(b.path[pos])
			// Merge this wave's register seed at pos, if any.
			if si < len(seeds) && seeds[si] == int32(pos) {
				cur = appendState(cur, segState{reg.C, reg.Setup})
				si++
			}
			if len(cur) == 0 {
				continue
			}
			if pos == last {
				// Source: feasible close ends the search at w registers.
				for _, s := range cur {
					if m.DriveInto(reg, s.c, s.d) <= T {
						return done(w, true)
					}
				}
				break
			}
			interior := pos != 0
			// Register insertion opens the next wave at this position.
			if interior && g.Insertable(u) && g.RegisterInsertable(u) {
				for _, s := range cur {
					if m.DriveInto(reg, s.c, s.d) <= T {
						if len(nextSeeds) == 0 || nextSeeds[len(nextSeeds)-1] != int32(pos) {
							nextSeeds = append(nextSeeds, int32(pos))
						}
						break
					}
				}
			}
			// Buffer insertion at pos, then the edge to pos+1. Both apply
			// the kernel's lookahead potential d + minR·c ≤ T − K(r).
			n := len(cur)
			if interior && g.Insertable(u) {
				for _, s := range cur[:n] {
					for bi := range tc.Buffers {
						bu := tc.Buffers[bi]
						c2, d2 := m.AddGate(bu, s.c, s.d)
						if d2+minR*c2 <= limit {
							cur = appendState(cur, segState{c2, d2})
						}
					}
				}
			}
			step = step[:0]
			for _, s := range cur {
				c2, d2 := m.AddEdge(s.c, s.d)
				if d2+minR*c2 <= limit {
					step = appendState(step, segState{c2, d2})
				}
			}
			cur, step = step, cur
		}
		if len(nextSeeds) == 0 {
			return done(0, false)
		}
		seeds, nextSeeds = nextSeeds, seeds
		b.seedsA, b.seedsB = seeds, nextSeeds
	}
	return done(0, false)
}

// pathMinLat returns the minimum total latency of a GALS labeling over the
// incumbent path set, or ok=false when no path admits one. reachS and
// reachT are the two domains' segment reaches.
func (b *Bounds) pathMinLat(p *Problem, Ts, Tt float64, reachS, reachT int) (best float64, ok bool) {
	b.forIncumbentPaths(p, reachS, reachT, func() {
		if lat, lok := b.latAlongPath(p, Ts, Tt); lok && (!ok || lat < best) {
			best, ok = lat, true
		}
	})
	return best, ok
}

// latAlongPath computes the minimum total latency of a GALS labeling of
// b.path, or ok=false when the path admits none. A GALS path
// decomposes around its single MCFIFO: k0 relay registers on the sink side
// (each segment closed within Tt), the FIFO, then k1 relays on the source
// side (segments within Ts), for a total latency (k0+1)·Tt + (k1+1)·Ts —
// exactly the kernel's accounting (l grows by T(z) per relay, Tt at the
// FIFO, Ts at the final source close). The two sides are independent given
// the FIFO site, and latency is monotone in each register count, so the
// path optimum is min over FIFO sites f of the per-side register minima.
//
// Phase A runs the sink-side wave DP under Tt once, recording in fifoK[f]
// the fewest registers after which the FIFO can close at f. Phase B groups
// the sites by that count and runs one source-side wave DP per distinct
// value, multi-seeded at the class's sites — the first wave that closes
// into the source register yields the class's k1 minimum.
//
// Every labeling the DP accepts is kernel-reachable: gates only at
// insertable interior nodes (registers and the FIFO additionally require
// RegisterInsertable), at most one gate per node — b.path is simple, and a
// wave's fresh seed is merged after the close and buffer blocks, so the
// node a register or FIFO occupies is never given a second gate — and each
// step passes the kernel's own feasibility checks. The returned latency is
// therefore the latency of a real solution and a sound upper bound for
// pruneGALS. Cost is O(len·frontier) per wave DP, orders of magnitude below
// a kernel probe.
func (b *Bounds) latAlongPath(p *Problem, Ts, Tt float64) (float64, bool) {
	g, m := p.Grid, p.Model
	tc := p.tech()
	reg, fifo := tc.Register, tc.FIFO
	minR := tc.MinBufferR()
	last := len(b.path) - 1
	maxWaves := len(b.path)

	b.fifoK = grow(b.fifoK, len(b.path))
	for i := range b.fifoK {
		b.fifoK[i] = -1
	}

	seeds := append(b.seedsA[:0], 0) // wave 0 starts at the sink, position 0
	nextSeeds := b.seedsB[:0]
	cur, step := b.fa[:0], b.fb[:0]
	done := func(lat float64, ok bool) (float64, bool) {
		b.fa, b.fb = cur[:0], step[:0]
		b.seedsA, b.seedsB = seeds[:0], nextSeeds[:0]
		return lat, ok
	}

	// runWave advances one wave of the segment DP across the path under
	// period T (lookahead slope/limit per the side's cheapest close). At
	// each interior site it calls visit on the edge-arrived frontier —
	// close decisions live there — then expands buffers, merges the wave's
	// seed, and steps the edge. seedState is the electrical state a seed
	// opens with (the register, or the FIFO on phase B's first wave).
	runWave := func(T, slope, limit float64, seedState segState, visit func(pos int, st []segState)) {
		nextSeeds = nextSeeds[:0]
		cur = cur[:0]
		si := 0
		for pos := 0; pos <= last; pos++ {
			u := int(b.path[pos])
			interior := pos != 0 && pos != last
			if len(cur) > 0 {
				visit(pos, cur)
				if interior && g.Insertable(u) {
					if g.RegisterInsertable(u) {
						for _, s := range cur {
							if m.DriveInto(reg, s.c, s.d) <= T {
								if len(nextSeeds) == 0 || nextSeeds[len(nextSeeds)-1] != int32(pos) {
									nextSeeds = append(nextSeeds, int32(pos))
								}
								break
							}
						}
					}
					n := len(cur)
					for _, s := range cur[:n] {
						for bi := range tc.Buffers {
							bu := tc.Buffers[bi]
							c2, d2 := m.AddGate(bu, s.c, s.d)
							if d2+slope*c2 <= limit {
								cur = appendState(cur, segState{c2, d2})
							}
						}
					}
				}
			}
			if si < len(seeds) && seeds[si] == int32(pos) {
				cur = appendState(cur, seedState)
				si++
			}
			if len(cur) == 0 || pos == last {
				continue
			}
			step = step[:0]
			for _, s := range cur {
				c2, d2 := m.AddEdge(s.c, s.d)
				if d2+slope*c2 <= limit {
					step = appendState(step, segState{c2, d2})
				}
			}
			cur, step = step, cur
		}
	}

	// Phase A: sink-side waves under Tt. The side's segments may close into
	// a relay register or the FIFO, so viability uses the cheaper of the
	// two closes — exactly the sink-domain reach's closeK/closeR.
	slopeT := math.Min(minR, fifo.R)
	limitT := Tt - math.Min(reg.K, fifo.K)
	maxK := int32(-1)
	for w := 0; w < maxWaves; w++ {
		runWave(Tt, slopeT, limitT, segState{reg.C, reg.Setup}, func(pos int, st []segState) {
			if pos == 0 || pos == last || b.fifoK[pos] >= 0 {
				return
			}
			u := int(b.path[pos])
			if !g.Insertable(u) || !g.RegisterInsertable(u) {
				return
			}
			for _, s := range st {
				if m.DriveInto(fifo, s.c, s.d) <= Tt {
					b.fifoK[pos] = int32(w)
					if int32(w) > maxK {
						maxK = int32(w)
					}
					return
				}
			}
		})
		if len(nextSeeds) == 0 {
			break
		}
		seeds, nextSeeds = nextSeeds, seeds
		b.seedsA, b.seedsB = seeds, nextSeeds
	}
	if maxK < 0 {
		return done(0, false) // no feasible FIFO site on this path
	}

	// Phase B: one source-side DP per distinct sink-side register count,
	// seeded at every FIFO site of that class. Classes and waves that can
	// no longer beat the best latency found are skipped.
	best := math.Inf(1)
	slopeS := minR
	limitS := Ts - reg.K
	for k := int32(0); k <= maxK; k++ {
		base := float64(k+1)*Tt + Ts
		if base >= best {
			break // latency grows with k; later classes only cost more
		}
		nextSeeds = nextSeeds[:0]
		for pos, fk := range b.fifoK {
			if fk == k {
				nextSeeds = append(nextSeeds, int32(pos))
			}
		}
		if len(nextSeeds) == 0 {
			continue
		}
		seeds, nextSeeds = nextSeeds, seeds
		b.seedsA, b.seedsB = seeds, nextSeeds
		seedState := segState{fifo.C, fifo.Setup}
		for w := 0; w < maxWaves; w++ {
			if base+float64(w)*Ts >= best {
				break
			}
			closed := false
			runWave(Ts, slopeS, limitS, seedState, func(pos int, st []segState) {
				if pos != last || closed {
					return
				}
				for _, s := range st {
					if m.DriveInto(reg, s.c, s.d) <= Ts {
						closed = true
						return
					}
				}
			})
			if closed {
				if lat := base + float64(w)*Ts; lat < best {
					best = lat
				}
				break
			}
			if len(nextSeeds) == 0 {
				break
			}
			seeds, nextSeeds = nextSeeds, seeds
			b.seedsA, b.seedsB = seeds, nextSeeds
			seedState = segState{reg.C, reg.Setup}
		}
	}
	if math.IsInf(best, 1) {
		return done(0, false)
	}
	return done(best, true)
}

// pathMinDelay runs FastPath's segment DP along one BFS shortest path and
// returns the minimum source-to-sink delay of a buffered labeling of that
// path (including the source register's drive and the sink setup). The
// value is achieved by a labeling the kernel itself can reach with exactly
// the same float operations, so it is a sound — and bitwise-achievable —
// delay incumbent.
func (b *Bounds) pathMinDelay(p *Problem) (float64, bool) {
	if !b.shortestPath(p) {
		return 0, false
	}
	g, m := p.Grid, p.Model
	tc := p.tech()
	reg := tc.Register
	last := len(b.path) - 1

	cur := append(b.fa[:0], segState{reg.C, reg.Setup})
	step := b.fb[:0]
	for pos := 0; pos < last; pos++ {
		u := int(b.path[pos])
		if pos != 0 && g.Insertable(u) {
			n := len(cur)
			for _, s := range cur[:n] {
				for bi := range tc.Buffers {
					bu := tc.Buffers[bi]
					c2, d2 := m.AddGate(bu, s.c, s.d)
					cur = appendState(cur, segState{c2, d2})
				}
			}
		}
		step = step[:0]
		for _, s := range cur {
			c2, d2 := m.AddEdge(s.c, s.d)
			step = appendState(step, segState{c2, d2})
		}
		cur, step = step, cur
	}
	best, ok := math.Inf(1), false
	for _, s := range cur {
		if d2 := m.DriveInto(reg, s.c, s.d); d2 < best {
			best, ok = d2, true
		}
	}
	b.fa, b.fb = cur[:0], step[:0]
	return best, ok
}

// remTable returns rem where rem[k] lower-bounds the delay any candidate
// still pays to finish across k or more grid edges: the exact minimum over
// ideal-line labelings of j ≥ k edges — starting from the most favorable
// capacitance any candidate can carry, buffers available at every step —
// plus the final register close K(r) + R(r)·c. Real completions only lose
// options (their capacitance is ≥ the seed, obstacles remove buffer
// sites), so rem is admissible; and because rem[k] is minimized over ALL
// j ≥ k, a candidate on a winding path longer than its BFS distance is
// still bounded correctly. States whose accumulated delay exceeds
// threshold are dropped — their completions cannot matter to a
// d + rem[dist] > threshold test — which also terminates the sweep: every
// edge adds at least edgeR·edgeC/2, so the frontier provably empties after
// O(threshold / minEdge) steps.
func (b *Bounds) remTable(m *elmore.Model, threshold float64) []float64 {
	tc := m.Tech()
	reg := tc.Register
	cmin := reg.C
	for _, bu := range tc.Buffers {
		if bu.C < cmin {
			cmin = bu.C
		}
	}
	n := int(b.maxSrc) + 1
	if cap(b.rem) < n {
		b.rem = make([]float64, n)
	}
	raw := b.rem[:n]
	for i := range raw {
		raw[i] = math.Inf(1)
	}
	raw[0] = reg.K + reg.R*cmin

	cur := append(b.fa[:0], segState{cmin, 0})
	step := b.fb[:0]
	// beyond accumulates min rem over every step ≥ n (paths longer than the
	// grid's BFS diameter are possible on winding routes).
	beyond := math.Inf(1)
	const maxSteps = 1 << 20
	for k := 1; len(cur) > 0; k++ {
		if k > maxSteps {
			beyond = 0 // give up: no information past this point, never prune there
			break
		}
		step = step[:0]
		for _, s := range cur {
			c2, d2 := m.AddEdge(s.c, s.d)
			if d2 <= threshold {
				step = appendState(step, segState{c2, d2})
			}
			for bi := range tc.Buffers {
				bu := tc.Buffers[bi]
				cg, dg := m.AddGate(bu, c2, d2)
				if dg <= threshold {
					step = appendState(step, segState{cg, dg})
				}
			}
		}
		best := math.Inf(1)
		for _, s := range step {
			if v := s.d + reg.K + reg.R*s.c; v < best {
				best = v
			}
		}
		if k < n {
			raw[k] = best
		} else if best < beyond {
			beyond = best
		}
		cur, step = step, cur
	}
	b.fa, b.fb = cur[:0], step[:0]
	// Suffix-minimize so rem[k] covers every completion length ≥ k.
	run := beyond
	for k := n - 1; k >= 0; k-- {
		if raw[k] < run {
			run = raw[k]
		}
		raw[k] = run
	}
	return raw
}

// window is the probe corridor: nodes on, or within windowSlack edges of, a
// shortest source-sink path. A windowed kernel run only ever emits
// candidates whose node the window allows, making the probe's cost roughly
// proportional to the corridor instead of the grid.
type window struct {
	distSrc, distSink []int32
	budget            int32
}

// window builds the probe corridor from b's distance fields.
func (b *Bounds) window(p *Problem) *window {
	return &window{
		distSrc:  b.distSrc,
		distSink: b.distSink,
		budget:   b.distSrc[p.Sink] + windowSlack,
	}
}

// allows reports whether node v lies inside the corridor.
func (w *window) allows(v int32) bool {
	ds, dt := w.distSrc[v], w.distSink[v]
	return ds >= 0 && dt >= 0 && ds+dt <= w.budget
}

// probeOptions derives the windowed probe's Options from the caller's: no
// observation (the probe is internal effort, reported via ProbeConfigs),
// no recursion into another probe, and a hard config budget so a lost bet
// stays cheap. Deadline and Abort are inherited — a cancelled search must
// not keep probing.
func probeOptions(opts Options, dist0 int32) Options {
	opts.Trace = nil
	opts.Telemetry = nil
	opts.MaximizeSlack = false
	opts.DisableBounds = true
	opts.MaxConfigs = probeBudgetBase + probeBudgetPerEdge*int(dist0)
	return opts
}

// outerAbortPending reports whether the caller's own Deadline or Abort hook
// has fired — the distinction between "the probe ran out of its private
// budget" (fall back to the exact search) and "the whole request is being
// cancelled" (propagate).
func outerAbortPending(opts Options) bool {
	if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
		return true
	}
	return opts.Abort != nil && opts.Abort() != nil
}

// pruneRBP is the RBP/array-queues bound test for a candidate entering wave
// `wave` at node v: with every remaining segment spanning at most reach
// edges, a completion needs at least ceil(dist/reach)-1 further registers
// (the current segment is already open). Prune when even that cannot stay
// within maxWave. The predicate depends only on (node, wave), so dominance
// interactions inside a wave are untouched — see the exactness contract.
func (b *Bounds) pruneRBP(wave int, v int32, reach, maxWave int) bool {
	d := b.distSrc[v]
	if d < 0 {
		return true
	}
	if d == 0 {
		return wave > maxWave
	}
	if reach <= 0 {
		return true // no segment can span even one edge: period infeasible
	}
	return wave+(int(d)+reach-1)/reach-1 > maxWave
}

// pruneGALS is the GALS bound test: the candidate's accumulated latency
// plus the cheapest possible remaining close sequence must stay within
// maxLat. In domain z=1 only source-clock segments remain: at least
// ceil(dist/reachS) more Ts closes (the final source close included). In
// domain z=0 the FIFO (one Tt close) and the final Ts close are both still
// owed; those two segments cover at most reachT+reachS of the remaining
// edges, and every further block of max(reachS, reachT) edges costs at
// least one more close at min(Ts, Tt). All terms are lower bounds, so the
// test is admissible; it depends only on (node, z, L), never on (c, d), so
// same-wave dominance interactions are untouched.
func (b *Bounds) pruneGALS(v int32, z uint8, l, ts, tt float64, reachS, reachT int, maxLat float64) bool {
	dist := int(b.distSrc[v])
	if dist < 0 {
		return true
	}
	if z == 1 {
		if dist == 0 {
			return l+ts > maxLat
		}
		if reachS <= 0 {
			return true
		}
		segs := (dist + reachS - 1) / reachS
		return l+float64(segs)*ts > maxLat
	}
	if reachS <= 0 || reachT <= 0 {
		return true
	}
	extra := 0
	if d := dist - reachS - reachT; d > 0 {
		mr := reachS
		if reachT > mr {
			mr = reachT
		}
		extra = (d + mr - 1) / mr
	}
	minT := math.Min(ts, tt)
	return l+tt+ts+float64(extra)*minT > maxLat
}

// candidateTieLess is the strict value order installed on every search
// heap: among exact-equal keys, candidates order by node, then by the
// remaining value fields. Within one wave a node's live candidates are
// pairwise distinct in (C, D) (2-D stores) or (C, D, Slack) (tri stores),
// so this order is total over every set of simultaneously-queued live
// candidates — which is what makes pop order content-determined and lets
// bound-pruned runs replay the unpruned pop sequence exactly.
func candidateTieLess(a, b *candidate.Candidate) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.D != b.D {
		return a.D < b.D
	}
	if a.C != b.C {
		return a.C < b.C
	}
	if a.Gate != b.Gate {
		return a.Gate < b.Gate
	}
	if a.Regs != b.Regs {
		return a.Regs < b.Regs
	}
	if a.Z != b.Z {
		return a.Z < b.Z
	}
	if a.Slack != b.Slack {
		return a.Slack < b.Slack
	}
	return a.L < b.L
}
