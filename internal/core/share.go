package core

import (
	"sync"

	"clockroute/internal/elmore"
	"clockroute/internal/grid"
)

// ShareCache is a plan-scoped cache of bound artifacts that are pure
// functions of (grid, problem): BFS distance fields per origin node,
// ideal-line segment reaches per (model, period), FastPath remainder
// tables, and probed incumbents per problem. One net's PrepBounds work
// becomes every net's.
//
// Soundness/exactness contract: every cached value is exactly the value
// the uncached code path would recompute — BFS, the segment DP, the
// remainder DP, and the windowed probe are all deterministic — so a search
// that hits the cache returns byte-identical results *and* byte-identical
// stats (ProbeConfigs, BoundPruned, ...) to one that recomputes. That is
// what the sharing on/off differential harness pins. Incumbents are cached
// only from clean computations: a probe that failed (fault injection,
// abort) leaves no entry, so a chaos-injured search can never poison the
// cache for the nets that follow — they recompute.
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
	incR   map[incKey]incRBP
	incG   map[incKey]incGALS
	incF   map[incFKey]*incFast
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

// incKey identifies a probed incumbent: the problem endpoints, the model,
// and the clock period(s). For RBP t2 == t1.
type incKey struct {
	m        *elmore.Model
	src, snk int
	t1, t2   float64
}

// incRBP is a cached RBP incumbent outcome: the register-count bound and
// the probe effort that produced it (reported in Stats, so it must be
// replayed exactly on a hit).
type incRBP struct {
	maxWave      int
	probeConfigs int
}

// incGALS is the cached GALS incumbent outcome.
type incGALS struct {
	maxLat       float64
	probeConfigs int
}

// incFKey identifies a FastPath bounds triple (no period involved).
type incFKey struct {
	m        *elmore.Model
	src, snk int
}

// incFast caches FastPath's pathMinDelay incumbent and the remainder
// table derived from it. rem is immutable once published.
type incFast struct {
	ok        bool
	threshold float64
	rem       []float64
}

// NewShareCache returns an empty cache bound to g.
func NewShareCache(g *grid.Grid) *ShareCache {
	return &ShareCache{
		g:      g,
		fields: make(map[int32]*bfsField),
		reach:  make(map[reachKey]int),
		incR:   make(map[incKey]incRBP),
		incG:   make(map[incKey]incGALS),
		incF:   make(map[incFKey]*incFast),
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

// rbpIncumbent returns the cached incumbent outcome for (p, T), if any.
func (sh *ShareCache) rbpIncumbent(p *Problem, T float64) (incRBP, bool) {
	if !sh.owns(p.Grid) {
		return incRBP{}, false
	}
	sh.mu.Lock()
	v, ok := sh.incR[incKey{p.Model, p.Source, p.Sink, T, T}]
	sh.mu.Unlock()
	return v, ok
}

// storeRBPIncumbent publishes a cleanly computed incumbent outcome.
func (sh *ShareCache) storeRBPIncumbent(p *Problem, T float64, v incRBP) {
	if !sh.owns(p.Grid) {
		return
	}
	sh.mu.Lock()
	sh.incR[incKey{p.Model, p.Source, p.Sink, T, T}] = v
	sh.mu.Unlock()
}

// galsIncumbent returns the cached incumbent outcome for (p, Ts, Tt).
func (sh *ShareCache) galsIncumbent(p *Problem, Ts, Tt float64) (incGALS, bool) {
	if !sh.owns(p.Grid) {
		return incGALS{}, false
	}
	sh.mu.Lock()
	v, ok := sh.incG[incKey{p.Model, p.Source, p.Sink, Ts, Tt}]
	sh.mu.Unlock()
	return v, ok
}

// storeGALSIncumbent publishes a cleanly computed incumbent outcome.
func (sh *ShareCache) storeGALSIncumbent(p *Problem, Ts, Tt float64, v incGALS) {
	if !sh.owns(p.Grid) {
		return
	}
	sh.mu.Lock()
	sh.incG[incKey{p.Model, p.Source, p.Sink, Ts, Tt}] = v
	sh.mu.Unlock()
}

// fastBounds returns the cached FastPath bounds triple, if any.
func (sh *ShareCache) fastBounds(p *Problem) (*incFast, bool) {
	if !sh.owns(p.Grid) {
		return nil, false
	}
	sh.mu.Lock()
	v, ok := sh.incF[incFKey{p.Model, p.Source, p.Sink}]
	sh.mu.Unlock()
	return v, ok
}

// storeFastBounds publishes a cleanly computed FastPath bounds triple.
// rem must be an unaliased copy: the pooled remTable buffer is recycled by
// the next search on the same scratch.
func (sh *ShareCache) storeFastBounds(p *Problem, v *incFast) {
	if !sh.owns(p.Grid) {
		return
	}
	sh.mu.Lock()
	sh.incF[incFKey{p.Model, p.Source, p.Sink}] = v
	sh.mu.Unlock()
}
