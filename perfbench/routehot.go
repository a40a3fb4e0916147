package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"clockroute/api"
	"clockroute/client"
	"clockroute/internal/core"
)

// route_hot traffic shape. Capacity on a 2-CPU Intel Xeon host is about
// 2400 requests/s of this mix, where the median passes 10 ms. The rate is
// a twelfth of that because that host's speed wanders by a quarter or
// more over minutes, and contention amplifies that into the tail: at
// higher rates the two CPUs are more often both busy searching, so hits
// and the generator itself wait up to a scheduler time slice (10 ms),
// and p99 lands on the edge of that mass. Ten runs spread by 0.2 to 0.4
// of the median on p99 at 800/s and 400/s. 200/s over 50 s still gives
// ten slices of the 1000 requests that a p99 with ten samples beyond it
// needs.
const (
	routeHotRate     = 200.0 // Poisson arrivals per second
	hotSetSize       = 64
	hotShare         = 0.8  // arrivals that repeat a hot-set problem
	conditionalShare = 0.25 // hot repeats sent with If-None-Match
	// routeHotDies is how many seeded dies the problems spread over, so
	// one seed's die layout does not set the cost of every miss.
	routeHotDies = 16
)

// routeItem is one single-net problem and its reference answer.
type routeItem struct {
	Req  api.RouteRequest `json:"req"`
	ETag string           `json:"etag"`
	want *api.RouteResponse
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	At          time.Duration `json:"at"`
	Item        int           `json:"item"`
	Conditional bool          `json:"conditional"`
}

// routeHot is the open-loop /v1/route workload: a hot set of repeated
// problems (cache hits, some revalidated with If-None-Match) mixed with a
// stream of fresh problems that miss the cache and fill it.
type routeHot struct {
	Kits     []api.GridSpec `json:"kits"`
	Items    []routeItem    `json:"items"` // hot set first, then fresh problems
	Arrivals []arrival      `json:"arrivals"`
	kits     []*gridKit
	itemKit  []int
}

// newRouteHot generates the hot set and a Poisson schedule covering d,
// drawing a fresh problem for every arrival outside the hot set, and
// computes every problem's reference answer.
func newRouteHot(seed int64, d time.Duration) (*routeHot, error) {
	grng := rand.New(rand.NewSource(seed))
	w := &routeHot{}
	for i := 0; i < routeHotDies; i++ { // small and medium dies, alternating
		sz := 24 + 16*(i%2)
		k, err := newGridKit(randomGrid(grng, sz, sz, 0.5))
		if err != nil {
			return nil, err
		}
		w.kits = append(w.kits, k)
		w.Kits = append(w.Kits, k.spec)
	}
	prng := rand.New(rand.NewSource(seed + 1))
	seen := make(map[api.ProblemHash]bool)
	for i := 0; i < hotSetSize; i++ {
		if err := w.addItem(prng, seen); err != nil {
			return nil, err
		}
	}
	srng := rand.New(rand.NewSource(seed + 2))
	for _, at := range poissonSchedule(srng, routeHotRate, d) {
		a := arrival{At: at}
		if srng.Float64() < hotShare {
			a.Item = srng.Intn(hotSetSize)
			a.Conditional = srng.Float64() < conditionalShare
		} else {
			if err := w.addItem(prng, seen); err != nil {
				return nil, err
			}
			a.Item = len(w.Items) - 1
		}
		w.Arrivals = append(w.Arrivals, a)
	}
	return w, nil
}

// addItem appends a problem no earlier item shares, with its reference.
func (w *routeHot) addItem(rng *rand.Rand, seen map[api.ProblemHash]bool) error {
	for {
		ki := rng.Intn(len(w.kits))
		k := w.kits[ki]
		req := api.RouteRequest{Grid: k.spec, Src: k.freePoint(rng), Dst: k.freePoint(rng)}
		switch rng.Intn(3) {
		case 0:
			req.Kind = "fastpath"
		case 1:
			req.Kind = "rbp"
			req.PeriodPS = rbpPeriods[rng.Intn(len(rbpPeriods))]
		default:
			req.Kind = "gals"
			pp := galsPeriods[rng.Intn(len(galsPeriods))]
			req.SrcPeriodPS, req.DstPeriodPS = pp[0], pp[1]
		}
		if req.Src == req.Dst {
			continue
		}
		p, err := api.Canonicalize(&req)
		if err != nil {
			return err
		}
		h := p.Hash()
		if seen[h] {
			continue
		}
		want, err := k.route(&req)
		if errors.Is(err, core.ErrNoPath) {
			continue
		}
		if err != nil {
			return fmt.Errorf("route_hot reference: %w", err)
		}
		seen[h] = true
		w.Items = append(w.Items, routeItem{Req: req, ETag: h.ETag(), want: want})
		w.itemKit = append(w.itemKit, ki)
		return nil
	}
}

// send issues one item's request and checks the answer.
func (w *routeHot) send(ctx context.Context, st *stack, it *routeItem, conditional bool) error {
	if conditional {
		resp, info, err := st.client.RouteConditional(ctx, &it.Req, it.ETag)
		if err != nil {
			return err
		}
		if !info.NotModified || info.ETag != it.ETag {
			if resp == nil || !sameRoute(resp, it.want) {
				return errWrongAnswer
			}
		}
		return nil
	}
	resp, err := st.client.Route(ctx, &it.Req)
	if err != nil {
		return err
	}
	if strconv.Quote(resp.ProblemHash) != it.ETag || !sameRoute(resp, it.want) {
		return errWrongAnswer
	}
	return nil
}

// warm opens the connections and primes the hot set into the cache.
func (w *routeHot) warm(ctx context.Context, st *stack) error {
	if err := st.warmConnections(ctx); err != nil {
		return err
	}
	return w.hotPass(ctx, st, false)
}

// discard searches the hot set again with the cache bypassed, one sender
// per CPU, so every worker's pooled search scratch exists.
func (w *routeHot) discard(ctx context.Context, st *stack) error {
	return w.hotPass(ctx, st, true)
}

func (w *routeHot) hotPass(ctx context.Context, st *stack, bypass bool) error {
	var wg sync.WaitGroup
	errs := make([]error, runtime.NumCPU())
	for s := range errs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < hotSetSize; i += len(errs) {
				it := w.Items[i]
				if bypass {
					it.Req.Cache = &api.CacheOptions{Mode: api.CacheModeBypass}
				}
				if err := w.send(ctx, st, &it, false); err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// run plays the schedule open loop: each request goes out when due, on its
// own goroutine, whether or not earlier ones have returned; the client's
// pool caps the connections at one per CPU. Latency runs from when the
// request was due, so a stall is charged to every request it delays. The
// time to the first result runs from when the request was sent, so it
// leaves out the generator's own lateness. Its statistic is the median:
// the middle half of the operations reaches into the hits' contention
// tail, whose weight moves with the host's speed.
func (w *routeHot) run(ctx context.Context, st *stack, d time.Duration) *runResult {
	n := len(w.Arrivals)
	lat := make([]float64, n)
	first := make([]float64, n)
	late := make([]float64, n)
	wall := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range w.Arrivals {
		due := start.Add(a.At)
		if pause := time.Until(due); pause > 0 {
			time.Sleep(pause)
		}
		sent := time.Now()
		late[i] = ms(sent.Sub(due))
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			octx, clk := withOpClock(client.WithRequestID(ctx, opID(i)))
			errs[i] = w.send(octx, st, &w.Items[a.Item], a.Conditional)
			end := time.Now()
			lat[i] = ms(end.Sub(due))
			wall[i] = end.Sub(sent)
			first[i] = ms(clk.since(sent, wall[i]))
		}(i, a)
	}
	wg.Wait()
	r := &runResult{elapsed: time.Since(start), lat: lat, first: first, firstStat: median, late: late, sent: n, wall: make(map[string]time.Duration, n)}
	for i, err := range errs {
		r.account(err, 1)
		r.wall[opID(i)] = wall[i]
	}
	return r
}

func opID(i int) string { return "op-" + strconv.Itoa(i) }

// probe draws the layer-timing inputs from the hot set: every hot problem
// as a single search, and the hot RBP/GALS problems of one medium die as
// one planner batch.
func (w *routeHot) probe() probeSet {
	var ps probeSet
	big := 1
	ps.batchKit = w.kits[big]
	for i := 0; i < hotSetSize; i++ {
		it := &w.Items[i]
		ps.routes = append(ps.routes, probeRoute{kit: w.kits[w.itemKit[i]], req: it.Req})
		if w.itemKit[i] != big || it.Req.Kind == "fastpath" {
			continue
		}
		n := api.NetSpec{Name: "hot" + strconv.Itoa(i), Src: it.Req.Src, Dst: it.Req.Dst,
			SrcPeriodPS: it.Req.SrcPeriodPS, DstPeriodPS: it.Req.DstPeriodPS}
		if it.Req.Kind == "rbp" {
			n.SrcPeriodPS, n.DstPeriodPS = it.Req.PeriodPS, it.Req.PeriodPS
		}
		ps.batch = append(ps.batch, n)
	}
	return ps
}
