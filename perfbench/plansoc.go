package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"clockroute/api"
	"clockroute/client"
	"clockroute/internal/core"
	"clockroute/internal/planner"
	"clockroute/internal/planwire"
	"clockroute/internal/tech"
)

// plan_soc shape: batches of the SoC25mm die at 0.5 mm pitch, each 8 RBP
// and 8 GALS nets between the die's west and east margins (clear of every
// block at this pitch), as in bench.SoCNetWorkload. Batches differ in cost
// by a third from the endpoint rows alone, so a run cycles through many,
// and no one batch's cost sets the median.
const (
	socPitch   = 0.5
	socNets    = 16
	socBatches = 16
)

// batchPrint is what a served batch must reproduce: the batch's
// configurations examined and every net's registers and latency.
type batchPrint struct {
	Configs   int
	Registers []int
	LatencyPS []float64
}

func printOf(nets []api.NetResult, configs int) batchPrint {
	p := batchPrint{Configs: configs}
	for _, n := range nets {
		p.Registers = append(p.Registers, n.Registers)
		p.LatencyPS = append(p.LatencyPS, n.LatencyPS)
	}
	return p
}

func (p batchPrint) equal(q batchPrint) bool {
	if p.Configs != q.Configs || len(p.Registers) != len(q.Registers) {
		return false
	}
	for i := range p.Registers {
		if p.Registers[i] != q.Registers[i] || p.LatencyPS[i] != q.LatencyPS[i] {
			return false
		}
	}
	return true
}

// planSoC is the closed-loop buffered /v1/plan workload: one client sends
// whole SoC batches with the cache bypassed, so the kernels do the work.
type planSoC struct {
	Batches []api.PlanRequest `json:"batches"`
	kit     *gridKit
	want    []batchPrint
}

func newPlanSoC(seed int64) (*planSoC, error) {
	spec, err := socGrid(socPitch)
	if err != nil {
		return nil, err
	}
	kit, err := newGridKit(spec)
	if err != nil {
		return nil, err
	}
	w := &planSoC{kit: kit}
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < socBatches; b++ {
		req := api.PlanRequest{
			Grid:    spec,
			Nets:    socBatch(rng, spec),
			Workers: runtime.GOMAXPROCS(0),
			Cache:   &api.CacheOptions{Mode: api.CacheModeBypass},
		}
		want, err := kit.plan(req.Nets, req.Workers)
		if err != nil {
			return nil, fmt.Errorf("plan_soc reference: %w", err)
		}
		w.Batches = append(w.Batches, req)
		w.want = append(w.want, want)
	}
	return w, nil
}

// socBatch draws one batch. Every batch has the same make-up, so seeds
// differ in detail but not in how hard they are: the west endpoints take
// one row from each of socNets equal bands of the die, each east endpoint
// lies in the band bench.SoCNetWorkload pairs with its west band, and net
// i always gets the same clock periods (RBP for even i, GALS for odd).
func socBatch(rng *rand.Rand, spec api.GridSpec) []api.NetSpec {
	band := (spec.H - 2) / socNets
	row := func(b int) int { return 1 + b*band + rng.Intn(band) }
	nets := make([]api.NetSpec, socNets)
	for i := range nets {
		nets[i] = api.NetSpec{
			Name: fmt.Sprintf("net%02d", i),
			Src:  api.Point{X: 1, Y: row(i)},
			Dst:  api.Point{X: spec.W - 2, Y: row((i*5 + 7) % socNets)},
		}
		if i%2 == 0 {
			t := rbpPeriods[(i/2)%len(rbpPeriods)]
			nets[i].SrcPeriodPS, nets[i].DstPeriodPS = t, t
		} else {
			pp := galsPeriods[(i/2)%len(galsPeriods)]
			nets[i].SrcPeriodPS, nets[i].DstPeriodPS = pp[0], pp[1]
		}
	}
	return nets
}

// plan runs nets through the planner directly and fingerprints the batch.
func (k *gridKit) plan(nets []api.NetSpec, workers int) (batchPrint, error) {
	pl, err := planner.NewFromGrid(k.g, tech.CongPan70nm(), core.Options{})
	if err != nil {
		return batchPrint{}, err
	}
	specs := make([]planner.NetSpec, len(nets))
	for i := range nets {
		specs[i] = planwire.SpecFromNet(&nets[i])
	}
	plan, err := pl.RunParallel(context.Background(), workers, specs)
	if err != nil {
		return batchPrint{}, err
	}
	out := make([]api.NetResult, len(plan.Nets))
	for i := range plan.Nets {
		if err := plan.Nets[i].Err; err != nil {
			return batchPrint{}, fmt.Errorf("net %s: %w", nets[i].Name, err)
		}
		out[i] = planwire.NetResultOnWire(&plan.Nets[i], k.g)
	}
	return printOf(out, plan.Stats.TotalConfigs), nil
}

func (w *planSoC) send(ctx context.Context, st *stack, b int) error {
	resp, err := st.client.Plan(ctx, &w.Batches[b])
	if err != nil {
		return err
	}
	for _, n := range resp.Nets {
		if n.Error != "" {
			return fmt.Errorf("net %s: %s", n.Name, n.Error)
		}
	}
	if !printOf(resp.Nets, resp.Stats.TotalConfigs).equal(w.want[b]) {
		return errWrongAnswer
	}
	return nil
}

func (w *planSoC) warm(ctx context.Context, st *stack) error {
	return st.warmConnections(ctx)
}

// discard sends one batch.
func (w *planSoC) discard(ctx context.Context, st *stack) error {
	return w.send(ctx, st, 0)
}

// run sends batches back to back from one client until d has passed.
func (w *planSoC) run(ctx context.Context, st *stack, d time.Duration) *runResult {
	r := &runResult{wall: make(map[string]time.Duration)}
	start := time.Now()
	prevEnd := start
	for i := 0; time.Since(start) < d; i++ {
		sent := time.Now()
		r.late = append(r.late, ms(sent.Sub(prevEnd)))
		octx, clk := withOpClock(client.WithRequestID(ctx, opID(i)))
		err := w.send(octx, st, i%len(w.Batches))
		prevEnd = time.Now()
		took := prevEnd.Sub(sent)
		r.lat = append(r.lat, ms(took))
		r.first = append(r.first, ms(clk.since(sent, took)))
		r.wall[opID(i)] = took
		r.account(err, socNets)
		r.sent++
	}
	r.elapsed = time.Since(start)
	return r
}

// probe times the kernels on the first batch's nets and the planner on
// the whole batch.
func (w *planSoC) probe() probeSet {
	return netProbe(w.kit, w.Batches[0].Nets)
}

// netProbe builds a probe set from plan nets: each net's endpoints are
// timed under every kernel — RBP at the net's source period, GALS at its
// own period pair (or one from galsPeriods for an RBP net), and FastPath.
func netProbe(kit *gridKit, nets []api.NetSpec) probeSet {
	ps := probeSet{batchKit: kit, batch: nets}
	for i, n := range nets {
		gals := [2]float64{n.SrcPeriodPS, n.DstPeriodPS}
		if gals[0] == gals[1] {
			gals = galsPeriods[i%len(galsPeriods)]
		}
		for _, req := range []api.RouteRequest{
			{Kind: "rbp", PeriodPS: n.SrcPeriodPS},
			{Kind: "gals", SrcPeriodPS: gals[0], DstPeriodPS: gals[1]},
			{Kind: "fastpath"},
		} {
			req.Grid, req.Src, req.Dst = kit.spec, n.Src, n.Dst
			ps.routes = append(ps.routes, probeRoute{kit: kit, req: req})
		}
	}
	return ps
}
