package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// genAll generates every workload's inputs for seed.
func genAll(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, name := range []string{"route_hot", "plan_soc", "stream_cluster"} {
		w, err := newWorkload(name, seed, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = b
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := genAll(t, 7), genAll(t, 7), genAll(t, 8)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func TestPoissonScheduleMeanRate(t *testing.T) {
	const rate = 1000.0
	d := 100 * time.Second
	at := poissonSchedule(rand.New(rand.NewSource(1)), rate, d)
	want := rate * d.Seconds()
	// The count is Poisson(want): its standard deviation is sqrt(want),
	// about 0.3% here, so 1% is over three deviations.
	if got := float64(len(at)); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("%d arrivals in %v, want about %.0f", len(at), d, want)
	}
	for i := range at {
		if at[i] >= d || (i > 0 && at[i] < at[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or past %v", i, at[i], d)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		q        float64
		wantRank int // 1-based rank of the returned sample
	}{
		{n: 2000, q: 0.99, wantRank: 1980},
		{n: 1000, q: 0.99, wantRank: 990},
		{n: 999, q: 0.99, wantRank: 989},
		{n: 100, q: 0.99, wantRank: 90},
		{n: 25, q: 0.99, wantRank: 15},
		{n: 11, q: 0.99, wantRank: 1},
		{n: 5, q: 0.99, wantRank: 1},
		{n: 100, q: 0.5, wantRank: 50},
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(i + 1) // value == rank
		}
		v, used := tail(samples, tc.q)
		if int(v) != tc.wantRank {
			t.Errorf("n=%d q=%g: rank %v, want %d", tc.n, tc.q, v, tc.wantRank)
		}
		if used > tc.q {
			t.Errorf("n=%d q=%g: used quantile %g above the one asked for", tc.n, tc.q, used)
		}
		if beyond := tc.n - int(v); tc.n > minBeyond && beyond < minBeyond {
			t.Errorf("n=%d q=%g: %d samples beyond, want at least %d", tc.n, tc.q, beyond, minBeyond)
		}
	}
}

func TestIQM(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 100, 200, 300, 400}, 76.75}, // mean of 3, 4, 100, 200
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{nil, 0},
	} {
		if got := iqm(tc.in); got != tc.want {
			t.Errorf("iqm(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestCheckRejectsTamperedAnswer serves each workload's first operation
// from a live stack, then tampers with the reference and expects the same
// served answer to be rejected.
func TestCheckRejectsTamperedAnswer(t *testing.T) {
	ctx := context.Background()
	st, err := newStack(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()

	t.Run("route_hot", func(t *testing.T) {
		w, err := newRouteHot(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, conditional := range []bool{false, true} {
			it := w.Items[0]
			if err := w.send(ctx, st, &it, conditional); err != nil {
				t.Fatalf("untampered (conditional=%v): %v", conditional, err)
			}
		}
		for name, tamper := range map[string]func(it *routeItem){
			"latency":   func(it *routeItem) { it.want.LatencyPS++ },
			"registers": func(it *routeItem) { it.want.Registers++ },
			"buffers":   func(it *routeItem) { it.want.Buffers++ },
			"path":      func(it *routeItem) { it.want.Path[0].X++ },
			"gates":     func(it *routeItem) { it.want.Gates[0] += "x" },
			"etag":      func(it *routeItem) { it.ETag = `"0"` },
		} {
			it := w.Items[0]
			want := *it.want
			want.Path = append(want.Path[:0:0], want.Path...)
			want.Gates = append(want.Gates[:0:0], want.Gates...)
			it.want = &want
			tamper(&it)
			if err := w.send(ctx, st, &it, false); !errors.Is(err, errWrongAnswer) {
				t.Errorf("tampered %s: got %v, want a wrong answer", name, err)
			}
		}
	})

	t.Run("plan_soc", func(t *testing.T) {
		w, err := newPlanSoC(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.send(ctx, st, 0); err != nil {
			t.Fatalf("untampered: %v", err)
		}
		w.want[0].Registers[3]++
		if err := w.send(ctx, st, 0); !errors.Is(err, errWrongAnswer) {
			t.Errorf("tampered registers: got %v, want a wrong answer", err)
		}
		w.want[0].Registers[3]--
		w.want[0].Configs++
		if err := w.send(ctx, st, 0); !errors.Is(err, errWrongAnswer) {
			t.Errorf("tampered configs: got %v, want a wrong answer", err)
		}
	})

	t.Run("stream_cluster", func(t *testing.T) {
		w, err := newStreamCluster(3)
		if err != nil {
			t.Fatal(err)
		}
		if o := w.stream(ctx, st.client, 0); o.err != nil || o.wrong != 0 || o.correct != streamNets {
			t.Fatalf("untampered: err=%v wrong=%d correct=%d", o.err, o.wrong, o.correct)
		}
		name := w.Streams[0][5].Name
		nr := w.want[0][name]
		nr.LatencyPS++
		w.want[0][name] = nr
		if o := w.stream(ctx, st.client, 0); o.wrong != 1 || o.correct != streamNets-1 {
			t.Errorf("tampered latency: wrong=%d correct=%d, want 1 and %d", o.wrong, o.correct, streamNets-1)
		}
	})
}
