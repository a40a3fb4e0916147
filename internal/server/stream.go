package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"clockroute/api"
	"clockroute/internal/core"
	"clockroute/internal/faultpoint"
	"clockroute/internal/planner"
	"clockroute/internal/planwire"
	"clockroute/internal/telemetry"
)

// handlePlanStream is the NDJSON transport of /v1/plan: the request body is
// a PlanStreamHeader line followed by one NetSpec line per net, the response
// is one NetResult line per net in completion order plus a trailer. Results
// go out while later nets are still being decoded or searched, and neither
// side ever holds the whole plan: the handler keeps at most one decoded line,
// a bounded spec window, and per-net bookkeeping (names and hashes).
//
// The HTTP status covers only the header: decode, validation, shutdown, and
// admission failures before the first response byte map onto the same codes
// as the buffered endpoint (400/503/429). From the first emitted line on,
// the stream is committed to 200 and any later fault — a malformed net line,
// a duplicate name, a contained handler panic — terminates it with an error
// trailer instead; every NetResult line already emitted remains valid.
//
// Admission is eager, unlike the buffered endpoint's only-on-miss admission:
// whether the stream will miss the cache is unknowable until its lines
// arrive, and a post-commit 429 cannot be sent, so a streamed plan always
// pays for one admission slot up front. That keeps Retry-After an HTTP
// header, which is what lets the client retry before the stream opens.
func (s *Server) handlePlanStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m := s.cfg.Metrics
	m.Requests.Inc()
	defer s.observeLatency(start)
	rec := telemetry.RecorderFromContext(r.Context())
	tc, _ := telemetry.TraceFromContext(r.Context())
	rid := telemetry.RequestIDFromContext(r.Context())

	endDecode := rec.Phase("decode")
	if err := faultpoint.Check("server.decode"); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	dec := api.NewPlanStreamDecoder(r.Body)
	hdr, err := dec.Header()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	mode := s.cacheMode(hdr.Cache)
	endDecode()

	leave, ok := s.enter()
	if !ok {
		s.fail(w, http.StatusServiceUnavailable, errors.New("server: shutting down"))
		return
	}
	defer leave()

	endAdmission := rec.Phase("admission")
	release, err := s.admit(r.Context())
	if err != nil {
		s.refuse(w, err)
		return
	}
	defer release()
	endAdmission()
	if s.testHookAdmitted != nil {
		s.testHookAdmitted()
	}

	pl, err := planwire.NewStreamPlanner(&hdr.Grid, s.cfg.Tech, s.requestSink(rec, tc, rid))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	workers := hdr.Workers
	if workers <= 0 || workers > s.cfg.MaxWorkers {
		workers = s.cfg.MaxWorkers
	}
	ctx, cancel := s.requestContext(r.Context(), hdr.TimeoutMS)
	defer cancel()

	// The HTTP/1 server half-closes an unread request body at the first
	// response write; this transport is genuinely full-duplex (results go
	// down while nets still come up), so opt out before committing. HTTP/2
	// is always full-duplex and may report the call unsupported — ignored.
	_ = http.NewResponseController(w).EnableFullDuplex()

	// Commit to the stream: from here every fault is a trailer, not a status.
	w.Header().Set("Content-Type", api.ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	sw := newStreamWriter(w)

	// Per-net content addresses, written by the decode loop before a spec
	// enters the channel and read by emit after a worker leaves it — the
	// channel orders the two, no net is emitted before it is hashed.
	var hashMu sync.Mutex
	hashByName := make(map[string]api.ProblemHash)

	g := pl.Grid()
	emit := func(res planner.NetResult) {
		nr := planwire.NetResultOnWire(&res, g)
		hashMu.Lock()
		h, hashed := hashByName[res.Spec.Name]
		hashMu.Unlock()
		if hashed {
			nr.ProblemHash = h.Hex()
			// Fill rule: identical to the buffered endpoint — only a clean,
			// first-attempt success may populate the cache.
			if mode != api.CacheModeBypass && res.Err == nil && !res.Panicked && !res.Retried {
				s.fillNetResult(h, nr)
			}
		}
		sw.writeLine(nr)
	}

	// The routing pool runs concurrently with the decode loop below,
	// consuming specs from a window-bounded channel: a plan arriving faster
	// than it routes blocks the decoder (and, through TCP, the sender)
	// instead of buffering unboundedly.
	window := 2 * workers
	if window < 16 {
		window = 16
	}
	specCh := make(chan planner.NetSpec, window)
	var closeSpecs sync.Once
	closeCh := func() { closeSpecs.Do(func() { close(specCh) }) }
	statsCh := make(chan planner.PlanStats, 1)
	endSearch := rec.Phase("search")
	go func() {
		st, _ := pl.RunStream(ctx, workers, specCh, emit)
		statsCh <- st
	}()

	// A panic below (decode loop, canonicalization) would otherwise unwind
	// into the recovery middleware, which writes a 500 into the middle of a
	// committed stream and leaks the routing pool on the still-open channel.
	// Contain it here instead: count it like a middleware-recovered one,
	// drain the pool, and report it through the error trailer.
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler { //nolint:errorlint // sentinel by identity, per net/http contract
			closeCh()
			<-statsCh
			panic(v)
		}
		s.panics.Add(1)
		m.RequestPanics.Inc()
		closeCh()
		<-statsCh
		endSearch()
		sw.trailerError(m, core.NewInternalError(v, debug.Stack()))
	}()

	seen := make(map[string]bool)
	cachedHits := 0
	var streamErr error
decode:
	for {
		n, err := dec.Next(&hdr.Grid)
		if err == io.EOF {
			break
		}
		if err != nil {
			streamErr = err
			break
		}
		if seen[n.Name] {
			streamErr = fmt.Errorf("api: duplicate net name %q", n.Name)
			break
		}
		seen[n.Name] = true
		p, err := api.CanonicalizeNet(&hdr.Grid, n)
		if err != nil {
			streamErr = err
			break
		}
		h := p.Hash()
		rec.SetNetAttr(n.Name, "problem_hash", h.Hex())
		if mode == api.CacheModeDefault {
			if nr, ok := s.cachedNetResult(h, n.Name); ok {
				cachedHits++
				sw.writeLine(nr)
				continue
			}
		}
		hashMu.Lock()
		hashByName[n.Name] = h
		hashMu.Unlock()
		select {
		case specCh <- planwire.SpecFromNet(n):
		case <-ctx.Done():
			// Timeout or disconnect while the window is full: stop decoding;
			// the pool fails the already-queued nets fast and drains.
			streamErr = fmt.Errorf("server: stream aborted: %w", context.Cause(ctx))
			break decode
		}
	}
	closeCh()
	stats := <-statsCh
	endSearch()

	endEncode := rec.Phase("encode")
	defer endEncode()
	if streamErr != nil {
		sw.trailerError(m, streamErr)
		return
	}
	ws := planwire.PlanStatsOnWire(stats)
	ws.NetsRouted += cachedHits
	sw.writeLine(api.PlanStreamTrailer{Stats: &ws})
}

// streamWriter serializes NDJSON response lines and flushes each one so a
// result reaches the client as soon as it exists. Both the decode loop
// (cache hits) and the routing pool's emit write through it. A write error
// (the client went away) latches: later lines are dropped silently, since
// there is no one left to read them.
type streamWriter struct {
	mu  sync.Mutex
	w   io.Writer
	rc  *http.ResponseController // follows middleware wrappers via Unwrap
	err error
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	return &streamWriter{w: w, rc: http.NewResponseController(w)}
}

func (sw *streamWriter) writeLine(v any) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		sw.err = err
		return
	}
	b = append(b, '\n')
	if _, err := sw.w.Write(b); err != nil {
		sw.err = err
		return
	}
	_ = sw.rc.Flush() // per-line delivery; unsupported writers just buffer
}

// trailerError ends a committed stream with an error trailer, counting it
// as a request error exactly as a pre-commit failure status would.
func (sw *streamWriter) trailerError(m *telemetry.Metrics, err error) {
	m.RequestErrors.Inc()
	sw.writeLine(api.PlanStreamTrailer{Error: err.Error()})
}
