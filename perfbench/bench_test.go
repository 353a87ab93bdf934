package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lodes"
)

// plans returns each workload's plan for a seed.
func plans(seed int64) map[string]func(int) op {
	return map[string]func(int) op{
		"serve-hot":           hotPlan(seed),
		"serve-durable-churn": churnPlan(seed, lodes.NewSchema(30)),
		"quarterly-ingest":    ingestReaderPlan(seed),
	}
}

func TestPlanDeterminism(t *testing.T) {
	a, b, c := plans(1), plans(1), plans(2)
	for name := range a {
		differs := false
		for i := 0; i < 200; i++ {
			x, y, z := a[name](i), b[name](i), c[name](i)
			if x.Kind != y.Kind || x.Key != y.Key || !bytes.Equal(x.Body, y.Body) {
				t.Fatalf("%s entry %d differs between two plans of seed 1", name, i)
			}
			if x.Kind != z.Kind || x.Key != z.Key || !bytes.Equal(x.Body, z.Body) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 planned the same 200 entries", name)
		}
	}
}

func TestChurnPlanMix(t *testing.T) {
	plan := churnPlan(3, lodes.NewSchema(30))
	kinds := map[string]int{}
	const n = 10 * churnAdvanceEvery
	for i := 0; i < n; i++ {
		kinds[plan(i).Kind]++
	}
	if kinds["advance"] != 10 {
		t.Errorf("%d advances in %d entries, want 10", kinds["advance"], n)
	}
	served := float64(n - kinds["advance"])
	for kind, want := range map[string]float64{"release": 0.8, "batch": 0.1, "cell": 0.1} {
		if got := float64(kinds[kind]) / served; math.Abs(got-want) > 0.02 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
}

func TestSmallMarginals(t *testing.T) {
	if n := len(smallMarginals(lodes.NewSchema(30))); n != 92 {
		t.Errorf("%d one-to-three-attribute marginals, want 92", n)
	}
}

func ascending(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
		value float64
	}{
		{1000, "p99", 990},
		{999, "p90", 900},
		{100, "p90", 90},
		{99, "p50", 50},
		{20, "p50", 10},
		{19, "max", 19},
		{8, "max", 8},
	} {
		got := tailOf(ascending(tc.n))
		if got.Label != tc.label || got.Value != tc.value || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want %s=%g with n=%d", tc.n, got, tc.label, tc.value, tc.n)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
}

// TestOpenLoopTimesFromSchedule stalls the server on its first request:
// the requests due during the stall wait behind it, and their latency
// is counted from when they were due, not from when they went out.
func TestOpenLoopTimesFromSchedule(t *testing.T) {
	const stall = 60 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	plan := func(i int) op { return op{Kind: "release", Path: "/", Body: []byte("{}")} }
	const rate = 200 // one request due every 5ms
	ss := openLoop([]*client{c}, 0, 10, rate, plan, nil, nil)
	for k, s := range ss {
		if !s.ok() {
			t.Fatalf("request %d failed", k)
		}
		if k > 0 {
			if gap := s.Due.Sub(ss[k-1].Due); gap != 5*time.Millisecond {
				t.Fatalf("due times %v apart, want 5ms", gap)
			}
		}
	}
	// Request 1 was due 5ms in and could not be sent before the stalled
	// request 0 finished, so its latency from its due time spans the
	// rest of the stall, though its own service was quick.
	if lat := ss[1].latency(); lat < stall-10*time.Millisecond {
		t.Errorf("request 1 latency %v, want at least %v", lat, stall-10*time.Millisecond)
	}
	if service := ss[1].Done.Sub(ss[1].Sent); service > stall/2 {
		t.Errorf("request 1 service %v; the stall should be in its wait, not its service", service)
	}
	if lat := ss[9].latency(); lat > ss[1].latency() {
		t.Errorf("request 9 latency %v above request 1's %v: the backlog should drain", lat, ss[1].latency())
	}
}

func TestClosedLoopDueIsPreviousCompletion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	plan := func(i int) op { return op{Kind: "release", Path: "/", Body: []byte("{}")} }
	ss := closedLoop([]*client{c}, 5, after(50*time.Millisecond), plan, nil, nil)
	if len(ss) < 2 || ss[0].Index != 5 {
		t.Fatalf("got %d samples starting at %d", len(ss), ss[0].Index)
	}
	for k := 1; k < len(ss); k++ {
		if !ss[k].Due.Equal(ss[k-1].Done) {
			t.Fatalf("sample %d due %v, previous done %v", k, ss[k].Due, ss[k-1].Done)
		}
	}
}

func TestChurnLengthEndsOnAnAdvance(t *testing.T) {
	plan := churnPlan(1, lodes.NewSchema(30))
	for _, seconds := range []float64{0.1, 10, 25} {
		n := churnLength(seconds)
		if n < churnAdvanceEvery || n%churnAdvanceEvery != 0 || plan(n-1).Kind != "advance" {
			t.Errorf("churnLength(%g) = %d: want whole stretches ending on an advance", seconds, n)
		}
	}
}

func TestIngestQuartersWholeRounds(t *testing.T) {
	for seconds, want := range map[float64]int{0.1: 8, 10: 8, 25: 16, 30: 16, 40: 24} {
		if got := ingestQuarters(seconds); got != want {
			t.Errorf("ingestQuarters(%g) = %d, want %d", seconds, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "wire", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "server", Start: ms(100), End: ms(160)},
		{ID: 3, Parent: 2, Name: "core", Start: ms(160), End: ms(200)},
		{ID: 4, Parent: 3, Name: "mech", Start: ms(200), End: ms(210)},
		{ID: 5, Parent: 3, Name: "privacy", Start: ms(210), End: ms(215)},
	}
	want := map[int]time.Duration{1: ms(40), 2: ms(20), 3: ms(25), 4: ms(10), 5: ms(5)}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self %v, want %v", id, got[id], w)
		}
	}
}

func TestWithSeq(t *testing.T) {
	o := releaseOp(keyAlpha, wireRelease{Attrs: []string{"sex"}, Mechanism: "smooth-gamma", Alpha: 0.1, Eps: 0.5}, 7)
	ws := decodeOp(op{Kind: "release", Body: withSeq(o.Body, 42)})
	if len(ws) != 1 || ws[0].Seq == nil || *ws[0].Seq != 42 || ws[0].Attrs[0] != "sex" {
		t.Errorf("withSeq body decodes to %+v", ws)
	}
}

func TestProbedLoopSendsEveryEntryOnce(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
	}))
	defer srv.Close()
	cs := []*client{newClient(srv.URL), newClient(srv.URL)}
	defer closeAll(cs)
	plan := func(i int) op { return op{Kind: "release", Path: "/", Body: []byte("{}")} }
	// 70 entries of 20ms on two connections take about 700ms, so the
	// loop pauses at least once.
	const n = 70
	ss, active := probedLoop(nil, cs, 0, func(i int) bool { return i >= n }, plan)
	if len(ss) != n {
		t.Fatalf("%d samples, want %d", len(ss), n)
	}
	for k, s := range ss {
		if s.Index != k || !s.ok() {
			t.Fatalf("sample %d: index %d, status %d", k, s.Index, s.Status)
		}
	}
	if active <= 0 || active > wall(ss) {
		t.Errorf("active time %v, want within (0, %v]", active, wall(ss))
	}
}

func TestNormalisedScalesTimesAndRates(t *testing.T) {
	// A host at half the reference speed: its probe took twice the
	// reference time, so its times halve and its rates double.
	for _, tc := range []struct{ in, want metric }{
		{metric{2, "s"}, metric{1, "s"}},
		{metric{0.4, "ms"}, metric{0.2, "ms"}},
		{metric{100, "1/s"}, metric{200, "1/s"}},
		{metric{30, "MiB"}, metric{30, "MiB"}},
	} {
		if got := normalised(tc.in, 0.5); got != tc.want {
			t.Errorf("normalised(%v, 0.5) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestHostProbe(t *testing.T) {
	dir := t.TempDir()
	p, err := newHostProbe(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.cacheUs) != 0 {
		t.Fatalf("%d timings kept from the untimed first touch", len(p.cacheUs))
	}
	p.measure()
	if len(p.cacheUs) != probeRounds || len(p.dramUs) != probeRounds || len(p.syncUs) != probeRounds {
		t.Fatalf("rounds %d/%d/%d, want %d", len(p.cacheUs), len(p.dramUs), len(p.syncUs), probeRounds)
	}
	if us := p.us(); !(us > 0) {
		t.Errorf("probe time %v", us)
	}
	p.close()
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("%d files left after close", len(left))
	}
	var none *hostProbe
	none.measure() // a traced run has no probe
	none.close()
}
