package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"clockroute/api"
	"clockroute/client"
	"clockroute/internal/core"
	"clockroute/internal/planner"
	"clockroute/internal/planwire"
	"clockroute/internal/resultcache"
	"clockroute/internal/tech"
	"clockroute/internal/telemetry"
)

// probeRoute is one single-net problem the traced run times the kernels,
// the api decoders and the result cache on.
type probeRoute struct {
	kit *gridKit
	req api.RouteRequest
}

// probeSet is a workload's inputs for timing each layer from outside.
type probeSet struct {
	routes   []probeRoute
	batchKit *gridKit
	batch    []api.NetSpec
}

// probeReps is how many times each probe repeats; the median is kept.
const probeReps = 3

// runTraced measures the workload twice on fresh stacks, first untraced
// (counters only) and then with the front's span trees flowing to a
// collector, and then times each layer's public functions on the
// workload's own inputs.
func runTraced(ctx context.Context, w workload, d time.Duration, meta map[string]any) (result, error) {
	m := make(map[string]metric)

	// Phase A: untraced, read the counters the program exports.
	st, _, err := setup(ctx, w, nil)
	if err != nil {
		return result{}, err
	}
	c0 := st.counters()
	var ms0, ms1 runtime.MemStats
	cpu0 := readCPU()
	runtime.ReadMemStats(&ms0)
	smp := startSampler(st)
	ra := w.run(ctx, st, d)
	runtime.ReadMemStats(&ms1)
	cpu1 := readCPU()
	c1 := st.counters()
	runtime.GC() // a last mark, so what the window retained is counted
	heap, queued := smp.stop()
	st.close()
	reportErrors(ra)

	nets := float64(ra.nets)
	m["core.configs_per_net"] = metric{ratio(float64(c1.configs-c0.configs), float64(c1.searches-c0.searches)), "count"}
	m["core.probe_configs_per_net"] = metric{ratio(float64(c1.probeConfigs-c0.probeConfigs), float64(c1.searches-c0.searches)), "count"}
	m["core.prune_ratio"] = metric{ratio(float64(c1.pruned-c0.pruned+c1.boundPruned-c0.boundPruned), float64(c1.pushed-c0.pushed)), "ratio"}
	m["core.max_q"] = metric{float64(c1.maxQ), "count"}
	m["resultcache.hit_ratio"] = metric{ratio(float64(c1.cacheHits-c0.cacheHits), float64(c1.cacheHits-c0.cacheHits+c1.cacheMisses-c0.cacheMisses)), "ratio"}
	m["resultcache.bytes"] = metric{float64(c1.cacheBytes), "bytes"}
	m["resultcache.evictions"] = metric{float64(c1.cacheEvictions - c0.cacheEvictions), "count"}
	m["server.queued_max"] = metric{float64(queued), "count"}
	m["server.shed"] = metric{float64(c1.shed - c0.shed), "count"}
	m["client.attempts_per_op"] = metric{ratio(float64(c1.roundTrips-c0.roundTrips), float64(ra.sent)), "count"}
	late, _ := tail(sorted(ra.late), 0.99)
	m["loadgen.late_p99_ms"] = metric{late, "ms"}
	m["loadgen.sent"] = metric{float64(ra.sent), "count"}
	m["runtime.alloc_kb_per_net"] = metric{ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, nets), "KiB"}
	m["runtime.mallocs_per_net"] = metric{ratio(float64(ms1.Mallocs-ms0.Mallocs), nets), "count"}
	m["runtime.gc_cpu_fraction"] = metric{ratio(cpu1.gc-cpu0.gc, cpu1.process-cpu0.process), "ratio"}
	cpuMSPerNet := ratio(1000*(cpu1.process-cpu0.process), nets)
	m["runtime.heap_peak_mb"] = metric{float64(heap) / (1 << 20), "MiB"}

	// Phase B: the same traffic with every span tree collected.
	col := newSpanCollector()
	st, _, err = setup(ctx, w, col)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	rb := w.run(ctx, st, d)
	reportErrors(rb)
	var overhead, search []float64
	col.mu.Lock()
	for id, wall := range rb.wall {
		if pt, ok := col.phases[id]; ok {
			overhead = append(overhead, ms(wall-pt.all))
			search = append(search, float64(pt.search)/float64(wall))
		}
	}
	encode := sorted(col.encode)
	col.mu.Unlock()
	m["server.overhead_ms"] = metric{median(sorted(overhead)), "ms"}
	m["server.encode_us"] = metric{median(encode), "us"}
	m["server.search_share"] = metric{median(sorted(search)), "ratio"}
	// An open loop's throughput is its schedule, so on route_hot tracing
	// shows in latency instead.
	over := ratio(ra.netsPerS(), rb.netsPerS())
	if _, open := w.(*routeHot); open {
		over = ratio(median(sorted(rb.lat)), median(sorted(ra.lat)))
	}
	m["telemetry.trace_overhead_ratio"] = metric{over - 1, "ratio"}

	// Layer probes, from outside, on the workload's inputs.
	ps := w.probe()
	kernelMS := probeKernels(ps, m)
	probeAPI(ps, m)
	serialMS, err := probePlanner(ctx, ps, m)
	if err != nil {
		return result{}, err
	}
	// The kernels' CPU per answered net, over the process's CPU per net.
	// route_hot searches only on its fresh share of requests, one kernel
	// call each; the batch workloads search every net, and a serial
	// planner run of their batch counts memo hits and width ladders as
	// the served traffic does.
	perNet := serialMS / float64(max(1, len(ps.batch)))
	if _, open := w.(*routeHot); open {
		perNet = (1 - hotShare) * kernelMS
	}
	m["core.share"] = metric{ratio(perNet, cpuMSPerNet), "ratio"}
	if err := probeCoordinator(ctx, st, ps, m, c1.failovers-c0.failovers, c1.degradedLocal-c0.degradedLocal); err != nil {
		return result{}, err
	}

	meta["operations"] = len(ra.lat) + len(rb.lat)
	both := &runResult{
		attempted: ra.attempted + rb.attempted,
		failed:    ra.failed + rb.failed,
		wrong:     ra.wrong + rb.wrong,
	}
	return both.result(m), nil
}

// spanCollector is the traced run's front-server sink: it keeps, per
// request id, the handler phases of the request's span tree, and every
// encode phase's duration.
type spanCollector struct {
	mu     sync.Mutex
	phases map[string]phaseTimes
	encode []float64 // µs
}

// phaseTimes sums one request's handler phases.
type phaseTimes struct {
	all    time.Duration // every phase
	search time.Duration // the search phase alone
}

func newSpanCollector() *spanCollector {
	return &spanCollector{phases: make(map[string]phaseTimes)}
}

func (c *spanCollector) Emit(e telemetry.Event) {
	if e.Kind != telemetry.EventSlowRequest {
		return
	}
	tree, ok := e.Payload.(*telemetry.SpanTree)
	if !ok || tree.Root == nil {
		return
	}
	var pt phaseTimes
	var enc []float64
	for _, ph := range tree.Root.Children {
		d := time.Duration(ph.DurationNS())
		pt.all += d
		switch ph.Name {
		case "search":
			pt.search += d
		case "encode":
			enc = append(enc, us(d))
		}
	}
	c.mu.Lock()
	c.phases[tree.RequestID] = pt
	c.encode = append(c.encode, enc...)
	c.mu.Unlock()
}

// sampler polls the process's live heap and every server's admission
// queue. The live heap is what the last collection marked reachable: the
// memory the process needed, where the heap's momentary size would also
// count garbage and depend on where the window fell in the GC cycle.
type sampler struct {
	stopc chan struct{}
	done  chan struct{}
	heap  uint64
	queue int
}

func startSampler(st *stack) *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			s.readHeap()
			for _, n := range st.nodes() {
				s.queue = max(s.queue, n.svc.Queued())
			}
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) readHeap() {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	s.heap = max(s.heap, sample[0].Value.Uint64())
}

// stop ends sampling and returns the peak live heap bytes and queue
// depth. It reads the live heap once more, so a collection the caller ran
// just before counts.
func (s *sampler) stop() (heap uint64, queue int) {
	close(s.stopc)
	<-s.done
	s.readHeap()
	return s.heap, s.queue
}

// cpuTimes are CPU seconds: the GC's, as the runtime estimates it at the
// end of each cycle, and the process's, user plus system, from the kernel.
type cpuTimes struct{ gc, process float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return cpuTimes{s[0].Value.Float64(), sec(ru.Utime) + sec(ru.Stime)}
}

// probeKernels times core.Route per kind on every probe problem, and
// renders each answer into a result cache to time cache hits. It returns
// the mean kernel time over the probe problems, in ms.
func probeKernels(ps probeSet, m map[string]metric) float64 {
	byKind := map[string][]float64{}
	var sum float64
	cache := resultcache.New(resultcache.Config{MaxBytes: 64 << 20})
	var keys []resultcache.Key
	for _, pr := range ps.routes {
		p, err := pr.kit.problem(pr.req.Src, pr.req.Dst)
		if err != nil {
			continue
		}
		creq, err := coreRequest(&pr.req)
		if err != nil {
			continue
		}
		start := time.Now()
		res, err := core.Route(context.Background(), p, creq)
		took := time.Since(start)
		if err != nil {
			continue
		}
		byKind[pr.req.Kind] = append(byKind[pr.req.Kind], ms(took))
		sum += ms(took)
		resp := &api.RouteResponse{LatencyPS: res.Latency, Registers: res.Registers, Buffers: res.Buffers}
		resp.Path, resp.Gates = planwire.PathOnWire(res.Path, pr.kit.g)
		b, _ := json.Marshal(resp)
		cp, err := api.Canonicalize(&pr.req)
		if err != nil {
			continue
		}
		k := resultcache.Key(cp.Hash())
		cache.Put(k, resp, int64(len(b)))
		keys = append(keys, k)
	}
	for _, kind := range []string{"fastpath", "rbp", "gals"} {
		m["core."+kind+"_ms"] = metric{median(sorted(byKind[kind])), "ms"}
	}
	var hits []float64
	for rep := 0; rep < 20; rep++ {
		start := time.Now()
		for _, k := range keys {
			cache.Get(k)
		}
		hits = append(hits, us(time.Since(start))/float64(max(1, len(keys))))
	}
	m["resultcache.hit_us"] = metric{median(sorted(hits)), "us"}
	return ratio(sum, float64(len(keys)))
}

// probeAPI times the wire decoders and the canonical hash on the probe
// problems, and the stream decoder on the probe batch.
func probeAPI(ps probeSet, m map[string]metric) {
	var decode, canon []float64
	for _, pr := range ps.routes {
		body, err := json.Marshal(&pr.req)
		if err != nil {
			continue
		}
		for rep := 0; rep < probeReps; rep++ {
			start := time.Now()
			req, err := api.DecodeRouteRequest(bytes.NewReader(body))
			decode = append(decode, us(time.Since(start)))
			if err != nil {
				continue
			}
			start = time.Now()
			p, err := api.Canonicalize(req)
			if err == nil {
				p.Hash()
			}
			canon = append(canon, us(time.Since(start)))
		}
	}
	m["api.decode_us"] = metric{median(sorted(decode)), "us"}
	m["api.canon_hash_us"] = metric{median(sorted(canon)), "us"}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	_ = enc.Encode(api.PlanStreamHeader{Grid: ps.batchKit.spec}) // a bytes.Buffer write cannot fail
	for _, n := range ps.batch {
		_ = enc.Encode(n)
	}
	var perNet []float64
	for rep := 0; rep < probeReps; rep++ {
		start := time.Now()
		dec := api.NewPlanStreamDecoder(bytes.NewReader(buf.Bytes()))
		hdr, err := dec.Header()
		for err == nil {
			_, err = dec.Next(&hdr.Grid)
		}
		if err != io.EOF {
			continue
		}
		perNet = append(perNet, us(time.Since(start))/float64(max(1, len(ps.batch))))
	}
	m["api.stream_decode_us_per_net"] = metric{median(sorted(perNet)), "us"}
}

// probePlanner times RunParallel on the probe batch at GOMAXPROCS workers,
// and returns the time of one serial run, in ms.
func probePlanner(ctx context.Context, ps probeSet, m map[string]metric) (float64, error) {
	specs := make([]planner.NetSpec, len(ps.batch))
	for i := range ps.batch {
		specs[i] = planwire.SpecFromNet(&ps.batch[i])
	}
	batch := func(workers int, sink telemetry.Sink) (*planner.Plan, time.Duration, error) {
		pl, err := planner.NewFromGrid(ps.batchKit.g, tech.CongPan70nm(), core.Options{Telemetry: sink})
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		plan, err := pl.RunParallel(ctx, workers, specs)
		return plan, time.Since(start), err
	}
	var wall, busy, straggle []float64
	for rep := 0; rep < probeReps; rep++ {
		tm := telemetry.NewMetrics()
		plan, took, err := batch(runtime.GOMAXPROCS(0), tm)
		if err != nil {
			return 0, err
		}
		var slowest time.Duration
		for i := range plan.Nets {
			slowest = max(slowest, plan.Nets[i].Elapsed)
		}
		wall = append(wall, ms(took))
		busy = append(busy, float64(tm.WorkerBusyNS.Value())/(float64(plan.Stats.Workers)*float64(took)))
		straggle = append(straggle, float64(slowest)/float64(took))
	}
	m["planner.batch_ms"] = metric{median(sorted(wall)), "ms"}
	m["planner.worker_busy_ratio"] = metric{median(sorted(busy)), "ratio"}
	m["planner.straggler_ratio"] = metric{median(sorted(straggle)), "ratio"}
	unique := len(uniqueNets(ps.batchKit, ps.batch))
	m["planner.repeat_share"] = metric{1 - ratio(float64(unique), float64(len(ps.batch))), "ratio"}
	_, serial, err := batch(1, nil)
	return ms(serial), err
}

// probeCoordinator streams the probe batch through the coordinator front
// and straight to one backend, alternating, and reads which backend
// answered the sharded nets.
func probeCoordinator(ctx context.Context, st *stack, ps probeSet, m map[string]metric, failovers, degraded int64) error {
	hdr := &api.PlanStreamHeader{Grid: ps.batchKit.spec, Cache: &api.CacheOptions{Mode: api.CacheModeBypass}}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	direct := client.New(st.backends[0].url, client.WithHTTPClient(&http.Client{Transport: tr}))
	timeStream := func(c *client.Client) (float64, error) {
		start := time.Now()
		_, err := c.PlanStream(ctx, hdr, client.NetsFromSlice(ps.batch), func(api.NetResult) error { return nil })
		return ms(time.Since(start)), err
	}
	var front, back []float64
	shares := make([]int64, len(st.backends))
	var failed, fellBack int64
	for rep := 0; rep < probeReps; rep++ {
		c0 := st.counters()
		f, err := timeStream(st.client)
		if err != nil {
			return err
		}
		c1 := st.counters()
		for i := range shares {
			shares[i] += c1.backendNets[i] - c0.backendNets[i]
		}
		failed += c1.failovers - c0.failovers
		fellBack += c1.degradedLocal - c0.degradedLocal
		b, err := timeStream(direct)
		if err != nil {
			return err
		}
		front, back = append(front, f), append(back, b)
	}
	var total, top int64
	for _, n := range shares {
		total += n
		top = max(top, n)
	}
	m["coordinator.overhead_ms"] = metric{median(sorted(front)) - median(sorted(back)), "ms"}
	m["coordinator.backend_share_max"] = metric{ratio(float64(top), float64(total)), "ratio"}
	m["coordinator.failovers"] = metric{float64(failovers + failed), "count"}
	m["coordinator.degraded_local"] = metric{float64(degraded + fellBack), "count"}
	return nil
}
