package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"clockroute/client"
	"clockroute/internal/coordinator"
	"clockroute/internal/server"
	"clockroute/internal/telemetry"
)

// backendCount is the number of routing workers behind the coordinator
// front, as in `routed -backends w1,w2`.
const backendCount = 2

// node is one routed process of the stack: a server with its own metrics
// registry, listening on loopback.
type node struct {
	svc  *server.Server
	m    *telemetry.Metrics
	http *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

// stack is an in-process routed deployment: a coordinator front (which
// serves /v1/route and buffered /v1/plan itself and shards streamed
// /v1/plan) over backendCount backends, every server built with
// cmd/routed's defaults, plus the client the load generator drives it with.
type stack struct {
	front    *node
	backends []*node
	coord    *coordinator.Coordinator
	coordTr  *http.Transport // the coordinator's connections to the backends

	rt     *countingTransport
	client *client.Client
}

// routedConfig is server.Config at cmd/routed's flag defaults.
func routedConfig(m *telemetry.Metrics) server.Config {
	return server.Config{
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     2 * time.Minute,
		CacheMaxBytes:  64 << 20,
		Metrics:        m,
		SlowThreshold:  500 * time.Millisecond,
	}
}

// newStack starts a stack. sink, when not nil, receives every event of the
// front server, and every front request's span tree as a slow_request
// event: the traced run's view of the front.
func newStack(sink telemetry.Sink) (*stack, error) {
	st := &stack{}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	// The coordinator knows the backends by fixed names that its client
	// dials at their loopback ports: the hash ring is built from the names,
	// so which backend owns a net does not change with the ports a run
	// happens to get.
	var names []string
	addrs := make(map[string]string)
	for i := 0; i < backendCount; i++ {
		m := telemetry.NewMetrics()
		be, err := serve(server.New(routedConfig(m)), m)
		if err != nil {
			return nil, err
		}
		st.backends = append(st.backends, be)
		host := fmt.Sprintf("backend%d:80", i)
		names = append(names, "http://"+host)
		addrs[host] = strings.TrimPrefix(be.url, "http://")
	}
	var dialer net.Dialer
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return dialer.DialContext(ctx, network, addr)
	}
	st.coordTr = http.DefaultTransport.(*http.Transport).Clone()
	st.coordTr.DialContext = dial
	fm := telemetry.NewMetrics()
	var err error
	st.coord, err = coordinator.New(coordinator.Config{
		Backends:      names,
		ProbeInterval: 10 * time.Second,
		Metrics:       fm,
		ClientOptions: []client.Option{client.WithHTTPClient(&http.Client{Transport: st.coordTr, Timeout: 5 * time.Minute})},
	})
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	st.coord.Start()
	cfg := routedConfig(fm)
	cfg.Coordinator = st.coord
	if sink != nil {
		cfg.Sink = sink
		cfg.SlowThreshold = time.Nanosecond // every request's tree reaches the sink
	}
	if st.front, err = serve(server.New(cfg), fm); err != nil {
		return nil, err
	}
	st.rt = newCountingTransport(runtime.NumCPU())
	st.client = client.New(st.front.url, client.WithHTTPClient(&http.Client{Transport: st.rt}))
	ok = true
	return st, nil
}

// serve starts svc on a loopback port.
func serve(svc *server.Server, m *telemetry.Metrics) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{
		svc:  svc,
		m:    m,
		http: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.http.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return n, nil
}

// nodes lists every server, front first.
func (st *stack) nodes() []*node {
	out := []*node{st.front}
	return append(out, st.backends...)
}

// close shuts the stack down and waits for every server goroutine.
func (st *stack) close() {
	if st.rt != nil {
		st.rt.base.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range st.nodes() {
		if n == nil {
			continue
		}
		_ = n.svc.Shutdown(ctx)
		_ = n.http.Shutdown(ctx)
		<-n.done
	}
	if st.coord != nil {
		st.coord.Close()
		st.coordTr.CloseIdleConnections()
	}
}

// warmConnections opens the client's full connection pool with parallel
// health checks, so no measured request pays a TCP handshake.
func (st *stack) warmConnections(ctx context.Context) error {
	n := runtime.NumCPU()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.front.url+"/healthz", nil)
			if err != nil {
				errs <- err
				return
			}
			resp, err := st.rt.base.RoundTrip(req)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz: status %d", resp.StatusCode)
			}
			errs <- err
		}()
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counters is a snapshot of every counter the stack exports.
type counters struct {
	searches, configs, pushed, pruned, boundPruned, probeConfigs int64
	maxQ                                                         int64
	cacheHits, cacheMisses, cacheEvictions, cacheBytes           int64
	shed, failovers, degradedLocal                               int64
	backendNets                                                  []int64
	roundTrips                                                   int64
}

func (st *stack) counters() counters {
	var c counters
	for _, n := range st.nodes() {
		m := n.m
		c.searches += m.Searches.Value()
		c.configs += m.Configs.Value()
		c.pushed += m.Pushed.Value()
		c.pruned += m.Pruned.Value()
		c.boundPruned += m.BoundPruned.Value()
		c.probeConfigs += m.ProbeConfigs.Value()
		c.maxQ = max(c.maxQ, m.MaxQSize.Value())
		c.shed += m.Shed.Value()
	}
	fm := st.front.m
	c.cacheHits = fm.CacheHits.Value()
	c.cacheMisses = fm.CacheMisses.Value()
	c.cacheEvictions = fm.CacheEvictions.Value()
	c.cacheBytes = fm.CacheBytes.Value()
	c.failovers = fm.CoordFailovers.Value()
	c.degradedLocal = fm.CoordDegradedLocal.Value()
	for _, be := range st.backends {
		c.backendNets = append(c.backendNets, be.m.NetsDone.Value())
	}
	c.roundTrips = st.rt.trips.Load()
	return c
}

// countingTransport counts HTTP attempts (the client retries through it)
// and stamps when each operation's first response headers arrived.
type countingTransport struct {
	base  *http.Transport
	trips atomic.Int64
}

func newCountingTransport(conns int) *countingTransport {
	return &countingTransport{base: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	resp, err := t.base.RoundTrip(req)
	if c, ok := req.Context().Value(opClockKey{}).(*opClock); ok && err == nil {
		c.headers.CompareAndSwap(0, time.Now().UnixNano())
	}
	return resp, err
}

type opClockKey struct{}

// opClock records when an operation's response headers first arrived.
type opClock struct{ headers atomic.Int64 }

func withOpClock(ctx context.Context) (context.Context, *opClock) {
	c := &opClock{}
	return context.WithValue(ctx, opClockKey{}, c), c
}

// since is the time from start to the first response headers, or d when
// none arrived.
func (c *opClock) since(start time.Time, d time.Duration) time.Duration {
	if ns := c.headers.Load(); ns != 0 {
		return time.Duration(ns - start.UnixNano())
	}
	return d
}

var errWrongAnswer = errors.New("wrong answer")
