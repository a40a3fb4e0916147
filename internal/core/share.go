package core

import (
	"sync"

	"clockroute/internal/elmore"
	"clockroute/internal/grid"
)

// ShareCache is a plan-scoped cache of the bound artifacts that repeat
// across a plan's nets: BFS distance fields per origin node (model-
// independent, so one field serves every net and wire width touching that
// endpoint) and ideal-line segment reaches per (model, period). One net's
// PrepBounds work becomes every net's. Whole repeated nets never get this
// far: the planner's memo answers them before a search starts.
//
// Exactness contract: both tables hold exactly what the uncached code path
// would recompute — BFS and the segment DP are deterministic — so a search
// that hits the cache returns byte-identical results *and* byte-identical
// stats to one that recomputes. That is what the sharing differential
// harness pins.
//
// Concurrency: all methods are safe for concurrent use by planner workers.
// Concurrent misses on the same key may compute the value redundantly;
// the first store wins and later computations (identical by determinism)
// are discarded.
//
// Lifetime: a ShareCache is bound to one immutable grid. Every lookup
// verifies grid identity and degrades to a miss-and-no-store on mismatch,
// so accidentally reusing a cache across grids is slow, not wrong.
type ShareCache struct {
	g *grid.Grid

	mu     sync.Mutex
	fields map[int32]*bfsField
	reach  map[reachKey]int
}

// bfsField is one immutable BFS distance field from a fixed origin.
type bfsField struct {
	dist []int32
	maxD int32
}

// reachKey identifies one segmentReach computation. The model pointer
// stands in for the technology and wire width (planner width-ladder models
// are cached per width, so pointers are stable identities within a plan);
// dual distinguishes GALS's FIFO-seeded source scan; maxReach is part of
// the key because the scan's cap is an input to its result.
type reachKey struct {
	m              *elmore.Model
	t              float64
	dual           bool
	closeK, closeR float64
	maxReach       int
}

// NewShareCache returns an empty cache bound to g.
func NewShareCache(g *grid.Grid) *ShareCache {
	return &ShareCache{
		g:      g,
		fields: make(map[int32]*bfsField),
		reach:  make(map[reachKey]int),
	}
}

// owns reports whether the cache was built for g. Nil-safe.
func (sh *ShareCache) owns(g *grid.Grid) bool { return sh != nil && sh.g == g }

// field returns the BFS distance field from origin, computing and
// publishing it on first use. The returned field is immutable. b supplies
// the pooled BFS worklist; the distance slice itself is freshly allocated
// so it can outlive the scratch (and survive its quarantine).
func (sh *ShareCache) field(p *Problem, origin int, b *Bounds) *bfsField {
	key := int32(origin)
	sh.mu.Lock()
	f, ok := sh.fields[key]
	sh.mu.Unlock()
	if ok {
		return f
	}
	dist := make([]int32, p.Grid.NumNodes())
	f = &bfsField{dist: dist, maxD: b.bfs(p, origin, dist)}
	sh.mu.Lock()
	if prev, ok := sh.fields[key]; ok {
		f = prev // lost the race; contents are identical by determinism
	} else {
		sh.fields[key] = f
	}
	sh.mu.Unlock()
	return f
}

// segmentReachShared answers b.segmentReach through the cache when sh is
// usable for p's grid, else computes directly.
func (b *Bounds) segmentReachShared(sh *ShareCache, p *Problem, m *elmore.Model, T float64, maxReach int, dual bool, closeK, closeMinR float64) int {
	if !sh.owns(p.Grid) {
		return b.segmentReachStart(p, m, T, maxReach, dual, closeK, closeMinR)
	}
	key := reachKey{m, T, dual, closeK, closeMinR, maxReach}
	sh.mu.Lock()
	v, ok := sh.reach[key]
	sh.mu.Unlock()
	if ok {
		return v
	}
	v = b.segmentReachStart(p, m, T, maxReach, dual, closeK, closeMinR)
	sh.mu.Lock()
	sh.reach[key] = v
	sh.mu.Unlock()
	return v
}

// segmentReachStart resolves the dual flag to the FIFO start element and
// runs the segment DP.
func (b *Bounds) segmentReachStart(p *Problem, m *elmore.Model, T float64, maxReach int, dual bool, closeK, closeMinR float64) int {
	if dual {
		fifo := m.Tech().FIFO
		return b.segmentReach(m, T, maxReach, &fifo, closeK, closeMinR)
	}
	return b.segmentReach(m, T, maxReach, nil, closeK, closeMinR)
}
