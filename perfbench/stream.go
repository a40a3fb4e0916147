package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"time"

	"clockroute/api"
	"clockroute/client"
)

// stream_cluster shape: NDJSON streams of short RBP nets on small dies, so
// a net's search (0.1 to 0.5 ms) costs about what its transport does. A
// GALS net costs 2 to 4 ms however short it is, twenty short RBP nets'
// worth, so the stream carries none; plan_soc and route_hot cover GALS. A
// share of the nets repeat an earlier net of their stream under a new name
// and a share sweep a wire-width ladder: the only traffic on which the
// planner memo and the batch ShareCache have anything to reuse.
const (
	streamNets    = 128
	streamCount   = 16
	repeatShare   = 0.25
	ladderShare   = 0.2
	streamMinDist = 4
	streamMaxDist = 12
)

// streamCluster is the closed-loop streamed /v1/plan workload: one client
// sends streams through the coordinator front, which shards them across
// the backends.
type streamCluster struct {
	Headers []api.PlanStreamHeader `json:"headers"`
	Streams [][]api.NetSpec        `json:"streams"`
	kits    []*gridKit
	want    []map[string]api.NetResult
}

// newStreamCluster draws streamCount streams, each on its own die.
func newStreamCluster(seed int64) (*streamCluster, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &streamCluster{}
	for s := 0; s < streamCount; s++ {
		kit, err := newGridKit(randomGrid(rng, 24, 24, 0.5))
		if err != nil {
			return nil, err
		}
		w.kits = append(w.kits, kit)
		w.Headers = append(w.Headers, api.PlanStreamHeader{Grid: kit.spec, Cache: &api.CacheOptions{Mode: api.CacheModeBypass}})
		nets := make([]api.NetSpec, 0, streamNets)
		for i := 0; i < streamNets; i++ {
			var n api.NetSpec
			if i > 0 && rng.Float64() < repeatShare {
				n = nets[rng.Intn(i)]
			} else {
				n = shortNet(rng, kit)
			}
			n.Name = fmt.Sprintf("s%d-n%03d", s, i)
			nets = append(nets, n)
		}
		ref, err := kit.serialNets(nets)
		if err != nil {
			return nil, fmt.Errorf("stream_cluster reference: %w", err)
		}
		want := make(map[string]api.NetResult, len(ref))
		for _, nr := range ref {
			want[nr.Name] = nr
		}
		w.Streams = append(w.Streams, nets)
		w.want = append(w.want, want)
	}
	return w, nil
}

// shortNet draws an RBP net whose endpoints lie streamMinDist..streamMaxDist
// apart (Manhattan), sometimes with a wire-width ladder.
func shortNet(rng *rand.Rand, kit *gridKit) api.NetSpec {
	for {
		src := kit.freePoint(rng)
		dst := kit.freePoint(rng)
		d := abs(src.X-dst.X) + abs(src.Y-dst.Y)
		if d < streamMinDist || d > streamMaxDist {
			continue
		}
		t := rbpPeriods[rng.Intn(len(rbpPeriods))]
		n := api.NetSpec{Src: src, Dst: dst, SrcPeriodPS: t, DstPeriodPS: t}
		if rng.Float64() < ladderShare {
			n.WireWidths = []float64{1, 1.5, 2}
		}
		return n
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// streamOutcome is what one stream delivered.
type streamOutcome struct {
	start   time.Time
	first   time.Duration // stream open to first result line; 0 if none
	netLat  []float64     // ms per correct net, line sent to result arrived
	correct int
	wrong   int
	err     error
}

// stream sends stream s to url and checks every result line against the
// serial reference.
func (w *streamCluster) stream(ctx context.Context, c *client.Client, s int) streamOutcome {
	nets := w.Streams[s]
	want := w.want[s]
	index := make(map[string]int, len(nets))
	for i, n := range nets {
		index[n.Name] = i
	}
	sentAt := make([]atomic.Int64, len(nets))
	got := make([]bool, len(nets))
	src := func(emit func(api.NetSpec) error) error {
		for i := range nets {
			sentAt[i].Store(time.Now().UnixNano())
			if err := emit(nets[i]); err != nil {
				return err
			}
		}
		return nil
	}
	o := streamOutcome{start: time.Now()}
	_, o.err = c.PlanStream(ctx, &w.Headers[s], src, func(nr api.NetResult) error {
		now := time.Now()
		if o.first == 0 {
			o.first = now.Sub(o.start)
		}
		i, ok := index[nr.Name]
		if !ok || got[i] {
			o.wrong++
			return nil
		}
		got[i] = true
		nr.ElapsedNS = 0
		if !reflect.DeepEqual(nr, want[nr.Name]) {
			o.wrong++
			return nil
		}
		o.correct++
		o.netLat = append(o.netLat, ms(time.Duration(now.UnixNano()-sentAt[i].Load())))
		return nil
	})
	return o
}

func (w *streamCluster) warm(ctx context.Context, st *stack) error {
	return st.warmConnections(ctx)
}

// discard sends one stream, which also opens the coordinator's backend
// connections.
func (w *streamCluster) discard(ctx context.Context, st *stack) error {
	o := w.stream(ctx, st.client, 0)
	if o.err != nil {
		return o.err
	}
	if o.wrong > 0 || o.correct != streamNets {
		return errWrongAnswer
	}
	return nil
}

// run sends streams back to back from one client until d has passed. The
// operation is one net: every net of a stream is attempted, and a net
// that is missing, duplicated or differs from the reference fails.
func (w *streamCluster) run(ctx context.Context, st *stack, d time.Duration) *runResult {
	r := &runResult{wall: make(map[string]time.Duration)}
	start := time.Now()
	prevEnd := start
	for i := 0; time.Since(start) < d; i++ {
		octx := client.WithRequestID(ctx, opID(i))
		r.late = append(r.late, ms(time.Since(prevEnd)))
		o := w.stream(octx, st.client, i%len(w.Streams))
		prevEnd = time.Now()
		r.wall[opID(i)] = prevEnd.Sub(o.start)
		if o.first > 0 {
			r.first = append(r.first, ms(o.first))
		}
		r.lat = append(r.lat, o.netLat...)
		r.sent++
		r.attempted += streamNets
		r.nets += o.correct
		r.failed += streamNets - o.correct
		r.wrong += o.wrong
		if o.err != nil {
			r.errs = append(r.errs, o.err)
		}
	}
	r.elapsed = time.Since(start)
	return r
}

// probe times the kernels on the first stream's distinct nets and the
// planner on the whole stream.
func (w *streamCluster) probe() probeSet {
	ps := netProbe(w.kits[0], uniqueNets(w.kits[0], w.Streams[0]))
	ps.batch = w.Streams[0]
	return ps
}

// uniqueNets drops nets canonically equal to an earlier one.
func uniqueNets(kit *gridKit, nets []api.NetSpec) []api.NetSpec {
	seen := make(map[api.ProblemHash]bool)
	var out []api.NetSpec
	for i := range nets {
		p, err := api.CanonicalizeNet(&kit.spec, &nets[i])
		if err != nil {
			continue
		}
		if h := p.Hash(); !seen[h] {
			seen[h] = true
			out = append(out, nets[i])
		}
	}
	return out
}
