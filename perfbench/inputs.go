package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"clockroute/api"
	"clockroute/internal/core"
	"clockroute/internal/elmore"
	"clockroute/internal/floorplan"
	"clockroute/internal/geom"
	"clockroute/internal/grid"
	"clockroute/internal/planner"
	"clockroute/internal/planwire"
	"clockroute/internal/tech"
)

// Clock periods the generators draw from. Equal endpoint periods make an
// RBP net, unequal ones a GALS net; all are routable at the pitches used.
var (
	rbpPeriods  = []float64{400, 500, 600}
	galsPeriods = [][2]float64{{500, 300}, {300, 500}, {350, 450}, {450, 350}}
)

// gridKit is one grid as the wire describes it and as the kernels see it,
// built once so references do not pay grid construction per problem.
type gridKit struct {
	spec api.GridSpec
	g    *grid.Grid
	m    *elmore.Model
}

func newGridKit(spec api.GridSpec) (*gridKit, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g, err := planwire.BuildGrid(&spec)
	if err != nil {
		return nil, err
	}
	m, err := elmore.NewModel(tech.CongPan70nm(), g.PitchMM())
	if err != nil {
		return nil, err
	}
	return &gridKit{spec: spec, g: g, m: m}, nil
}

// randomGrid is a w×h die with a few seeded hard-IP obstacles, one
// clock-quiet region and one small pre-routed (wiring-blocked) region.
// Blocks stay small so every pair of free points is routable.
func randomGrid(rng *rand.Rand, w, h int, pitch float64) api.GridSpec {
	spec := api.GridSpec{W: w, H: h, PitchMM: pitch}
	rect := func(maxSide int) api.Rect {
		rw, rh := 2+rng.Intn(maxSide-1), 2+rng.Intn(maxSide-1)
		x, y := 1+rng.Intn(w-rw-1), 1+rng.Intn(h-rh-1)
		return api.Rect{X0: x, Y0: y, X1: x + rw, Y1: y + rh}
	}
	for i := 0; i < 4; i++ {
		spec.Obstacles = append(spec.Obstacles, rect(5))
	}
	spec.RegisterBlockages = []api.Rect{rect(4)}
	spec.WiringBlockages = []api.Rect{rect(3)}
	return spec
}

// freePoint draws a grid point outside every block, so it accepts the
// clocked endpoints the kernels require.
func (k *gridKit) freePoint(rng *rand.Rand) api.Point {
	for {
		p := api.Point{X: rng.Intn(k.spec.W), Y: rng.Intn(k.spec.H)}
		if k.free(p) {
			return p
		}
	}
}

func (k *gridKit) free(p api.Point) bool {
	for _, rs := range [][]api.Rect{k.spec.Obstacles, k.spec.RegisterBlockages, k.spec.WiringBlockages} {
		for _, r := range rs {
			if p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1 {
				return false
			}
		}
	}
	return true
}

// problem builds the kernel problem between two wire points.
func (k *gridKit) problem(src, dst api.Point) (*core.Problem, error) {
	return core.NewProblem(k.g, k.m, k.g.ID(geom.Pt(src.X, src.Y)), k.g.ID(geom.Pt(dst.X, dst.Y)))
}

// coreRequest is the kernel request a wire route request asks for.
func coreRequest(req *api.RouteRequest) (core.Request, error) {
	kind, err := core.ParseKind(req.Kind)
	if err != nil {
		return core.Request{}, err
	}
	return core.Request{
		Kind:        kind,
		PeriodPS:    req.PeriodPS,
		SrcPeriodPS: req.SrcPeriodPS,
		DstPeriodPS: req.DstPeriodPS,
	}, nil
}

// route answers req on this grid by calling core.Route directly — the
// reference every served answer must equal.
func (k *gridKit) route(req *api.RouteRequest) (*api.RouteResponse, error) {
	p, err := k.problem(req.Src, req.Dst)
	if err != nil {
		return nil, err
	}
	creq, err := coreRequest(req)
	if err != nil {
		return nil, err
	}
	res, err := core.Route(context.Background(), p, creq)
	if err != nil {
		return nil, err
	}
	out := &api.RouteResponse{
		LatencyPS:     res.Latency,
		SourceDelayPS: res.SourceDelay,
		SlackPS:       res.SlackPS,
		Registers:     res.Registers,
		Buffers:       res.Buffers,
	}
	out.Path, out.Gates = planwire.PathOnWire(res.Path, k.g)
	return out, nil
}

// sameRoute reports whether a served route answer equals the reference.
func sameRoute(got, want *api.RouteResponse) bool {
	return got.LatencyPS == want.LatencyPS &&
		got.SourceDelayPS == want.SourceDelayPS &&
		got.SlackPS == want.SlackPS &&
		got.Registers == want.Registers &&
		got.Buffers == want.Buffers &&
		reflect.DeepEqual(got.Path, want.Path) &&
		reflect.DeepEqual(got.Gates, want.Gates)
}

// serialNets routes nets one at a time with the planner over kit's grid
// and renders each result as the wire does, elapsed_ns zeroed and the
// problem hash filled in — the sharded == serial reference.
func (k *gridKit) serialNets(nets []api.NetSpec) ([]api.NetResult, error) {
	pl, err := planner.NewFromGrid(k.g, tech.CongPan70nm(), core.Options{})
	if err != nil {
		return nil, err
	}
	specs := make([]planner.NetSpec, len(nets))
	for i := range nets {
		specs[i] = planwire.SpecFromNet(&nets[i])
	}
	plan, err := pl.RunParallel(context.Background(), 1, specs)
	if err != nil {
		return nil, err
	}
	out := make([]api.NetResult, len(nets))
	for i := range plan.Nets {
		if err := plan.Nets[i].Err; err != nil {
			return nil, fmt.Errorf("net %s: %w", nets[i].Name, err)
		}
		p, err := api.CanonicalizeNet(&k.spec, &nets[i])
		if err != nil {
			return nil, err
		}
		out[i] = planwire.NetResultOnWire(&plan.Nets[i], k.g)
		out[i].ElapsedNS = 0
		out[i].ProblemHash = p.Hash().Hex()
	}
	return out, nil
}

// socGrid is the SoC25mm die of the paper's experiments as a wire grid.
func socGrid(pitch float64) (api.GridSpec, error) {
	fp, err := floorplan.SoC25mm(pitch)
	if err != nil {
		return api.GridSpec{}, err
	}
	spec := api.GridSpec{W: fp.GridW, H: fp.GridH, PitchMM: fp.PitchMM}
	for _, b := range fp.Blocks {
		r := api.Rect{X0: b.Rect.MinX, Y0: b.Rect.MinY, X1: b.Rect.MaxX, Y1: b.Rect.MaxY}
		switch b.Kind {
		case floorplan.HardIP:
			spec.Obstacles = append(spec.Obstacles, r)
		case floorplan.WiringDense:
			spec.WiringBlockages = append(spec.WiringBlockages, r)
		case floorplan.ClockQuiet:
			spec.RegisterBlockages = append(spec.RegisterBlockages, r)
		}
	}
	return spec, nil
}
