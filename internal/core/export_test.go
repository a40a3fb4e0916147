package core

// PathIncumbentRBP exposes the path-DP incumbent layer of rbpBounds to the
// external tests: the fewest registers of a feasible labeling over the
// incumbent path set, on private bounds (no plan-scoped ShareCache) and
// with no probe fallback.
func PathIncumbentRBP(p *Problem, T float64) (int, bool) {
	bd := new(Scratch).PrepBounds(p)
	return bd.pathMinRegs(p, T, bd.rbpReach(nil, p, T))
}

// PathIncumbentGALS is PathIncumbentRBP for galsBounds' latency incumbent.
func PathIncumbentGALS(p *Problem, Ts, Tt float64) (float64, bool) {
	bd := new(Scratch).PrepBounds(p)
	reachS, reachT := bd.galsReaches(nil, p, Ts, Tt)
	return bd.pathMinLat(p, Ts, Tt, reachS, reachT)
}
