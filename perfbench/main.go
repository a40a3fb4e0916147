// Command perfbench is clockroute's benchmark: it starts an in-process
// routed deployment (a coordinator front over two backends, every server
// at cmd/routed's defaults) on loopback, drives one workload against it
// through the client package, checks every answer against a reference
// computed by calling the kernels directly, and prints one JSON result
// line. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload route_hot --seed 1 --seconds 50 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"clockroute/internal/telemetry"
)

// setupRuns is how many times a run builds and warms a stack; setup_s is
// their median, and the last one is measured.
const setupRuns = 5

// workload is one traffic mix against the stack.
type workload interface {
	// warm opens the client's connections and primes what the workload
	// expects to find warm, such as a hot set in the cache.
	warm(ctx context.Context, st *stack) error
	// discard sends one pass of the workload's searching traffic, which
	// fills the pooled search scratch as the measured traffic uses it.
	// Answers of both are checked, then discarded.
	discard(ctx context.Context, st *stack) error
	// run drives the measured traffic for about d.
	run(ctx context.Context, st *stack, d time.Duration) *runResult
	// probe returns the inputs the traced run times each layer on.
	probe() probeSet
}

// newWorkload generates the named workload's inputs and references for
// measured phases of length d.
func newWorkload(name string, seed int64, d time.Duration) (workload, error) {
	switch name {
	case "route_hot":
		return newRouteHot(seed, d)
	case "plan_soc":
		return newPlanSoC(seed)
	case "stream_cluster":
		return newStreamCluster(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want route_hot, plan_soc or stream_cluster)", name)
}

// runResult is what one measured phase saw.
type runResult struct {
	attempted, failed, wrong int
	nets                     int // nets answered correctly
	elapsed                  time.Duration
	lat                      []float64 // ms per operation
	first                    []float64 // ms from an operation's start to its first result
	late                     []float64 // ms each send was behind its due time
	sent                     int       // requests sent
	errs                     []error
	// wall is each operation's client-side time by request id, joined
	// with the server's span trees in the traced run.
	wall map[string]time.Duration
	// firstStat is the statistic first_result_ms takes of each slice of
	// first; the interquartile mean when nil.
	firstStat func(sorted []float64) float64
}

// account records one operation of nets nets that ended with err.
func (r *runResult) account(err error, nets int) {
	r.attempted++
	switch {
	case err == nil:
		r.nets += nets
	case errors.Is(err, errWrongAnswer):
		r.failed++
		r.wrong++
	default:
		r.failed++
		r.errs = append(r.errs, err)
	}
}

func (r *runResult) netsPerS() float64 { return float64(r.nets) / r.elapsed.Seconds() }

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	var (
		name    = flag.String("workload", "", "route_hot, plan_soc or stream_cluster")
		seed    = flag.Int64("seed", 1, "input seed (default 1; 2026 is held out for confirming claims)")
		seconds = flag.Int("seconds", 50, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traced bool) error {
	ctx := context.Background()
	phase := d
	if traced {
		phase = d / 2 // half untraced, half traced
	}
	genStart := time.Now()
	w, err := newWorkload(name, seed, phase)
	if err != nil {
		return err
	}
	meta := hostMeta(name, seed, d, traced)
	meta["inputs_s"] = time.Since(genStart).Seconds()

	var res result
	if traced {
		res, err = runTraced(ctx, w, phase, meta)
	} else {
		res, err = runUntraced(ctx, w, phase, meta)
	}
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	return out.Flush()
}

// setup builds a stack and warms it. Two collections then empty the
// sync.Pool scratch caches of whatever earlier stacks and references left
// (a pool keeps objects for one collection), the discarded pass fills them
// as this workload uses them, and a last collection keeps set-up garbage
// out of the measured window. The heap the window starts from is thus the
// same from run to run.
func setup(ctx context.Context, w workload, sink telemetry.Sink) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := newStack(sink)
	if err != nil {
		return nil, 0, err
	}
	if err := w.warm(ctx, st); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	runtime.GC()
	if err := w.discard(ctx, st); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("discarded pass: %w", err)
	}
	runtime.GC()
	return st, time.Since(start), nil
}

func runUntraced(ctx context.Context, w workload, d time.Duration, meta map[string]any) (result, error) {
	var setups []float64
	var st *stack
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
		}
		var took time.Duration
		var err error
		if st, took, err = setup(ctx, w, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	defer st.close()

	r := w.run(ctx, st, d)
	meta["operations"] = len(r.lat)
	if n := len(r.lat); n > 0 {
		_, meta["p99_quantile"] = tail(sorted(r.lat[:n/sliceCount(n)]), 0.99)
	}
	reportErrors(r)
	firstStat := iqm
	if r.firstStat != nil {
		firstStat = r.firstStat
	}
	return r.result(map[string]metric{
		"setup_s":         {median(sorted(setups)), "s"},
		"nets_per_s":      {r.netsPerS(), "1/s"},
		"p50_ms":          {sliced(r.lat, median), "ms"},
		"p99_ms":          {sliced(r.lat, p99), "ms"},
		"first_result_ms": {sliced(r.first, firstStat), "ms"},
		"ok_ratio":        {1 - ratio(float64(r.failed), float64(r.attempted)), "ratio"},
	}), nil
}

func (r *runResult) result(m map[string]metric) result {
	return result{
		Correct:   r.wrong == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}
}

// reportErrors prints the first few operation errors to standard error.
func reportErrors(r *runResult) {
	if r.wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers\n", r.wrong)
	}
	for i, err := range r.errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d errors in all\n", len(r.errs))
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	}
}

// hostMeta describes the host and run, printed with every result.
func hostMeta(name string, seed int64, d time.Duration, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":       name,
		"seed":           seed,
		"seconds":        d.Seconds(),
		"trace":          traced,
		"cpu_model":      cpuModel(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"commit":         commit,
		"route_hot_rate": routeHotRate,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
