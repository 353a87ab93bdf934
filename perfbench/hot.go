package main

import (
	"bytes"
	"time"

	"repro/internal/lodes"
)

// hotRate is serve-hot's open-loop rate, in requests per second: well
// under the two-connection capacity, so its latencies measure service,
// not a standing queue.
const hotRate = 500

// hotResends is how many plan entries serve-hot sends a second time to
// check that a replay returns the same bytes.
const hotResends = 64

// bootHot sets serve-hot up: the demo data, an in-memory server, and
// every catalog marginal released once so the cache is warm. It
// returns the stack and the warm-up releases it made.
func bootHot(tr *tracer) (*stack, int, error) {
	d, err := generate(lodes.TestConfig(), tr)
	if err != nil {
		return nil, 0, err
	}
	st, err := boot(d, nil, "", nil)
	if err != nil {
		return nil, 0, err
	}
	n, err := warm(st, hotCatalog(), 256)
	return st, n, err
}

// serveHot is the cached read path: open-loop releases at a fixed rate
// for the latencies, then a closed loop on both connections for the
// capacity.
func serveHot(r *run) error {
	if r.trace {
		return serveHotTraced(r)
	}
	probe, err := newHostProbe(r.outDir)
	if err != nil {
		return err
	}
	defer probe.close()
	var warmed int
	st, times, err := setUp(setups, probe, func() (*stack, error) {
		st, n, err := bootHot(nil)
		warmed = n
		return st, err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", "s", median(times))
	plan := hotPlan(r.seed)
	cs := st.clients(2)
	defer closeAll(cs)

	// A fifth of the run open loop at hotRate, whose latencies from
	// the schedule are recorded in the details; the rest closed loop on
	// both connections, which the metrics come from. On a shared host,
	// open-loop tails mostly time the host's stalls: every arrival during
	// a stall waits it out.
	nOpen := int(hotRate * r.seconds * 0.2)
	every := max(nOpen/hotResends, 1)
	keep := func(i int) bool { return i%every == 0 }
	open := openLoop(cs, 0, nOpen, hotRate, plan, keep, nil)
	closed, active := probedLoop(probe, cs, nOpen, after(time.Duration(r.seconds*0.8*float64(time.Second))), plan)
	r.count(open)
	r.count(closed)

	r.setLatency(closed, nil)
	okClosed := countOK(closed, nil)
	r.set("ops_per_s", "1/s", float64(okClosed)/active.Seconds())
	lat, late := latenciesMs(open, nil), lateMs(open)
	r.note("open_loop", map[string]any{
		"rate": hotRate, "p50_ms": finite(percentile(lat, 50)), "tail_ms": finiteTail(tailOf(lat)),
		"late_p50_ms": percentile(late, 50), "late_p99_ms": percentile(late, 99),
	})

	// Every response is a 200, a resent entry (same tenant, seq and body)
	// returns the same bytes, and the tenant's release count is the
	// count of 200s the benchmark received.
	r.check(r.failed == 0, "%d of %d requests failed", r.failed, r.attempted)
	resent := 0
	for _, s := range open {
		if s.Body == nil {
			continue
		}
		r.attempted++
		status, body, err := cs[0].do(plan(s.Index))
		if err != nil || status != 200 {
			r.failed++
			r.check(false, "resend of entry %d: status %d: %v", s.Index, status, err)
			continue
		}
		resent++
		r.check(bytes.Equal(body, s.Body), "resend of entry %d returned different bytes", s.Index)
	}
	r.check(resent >= hotResends/2, "only %d entries were resent", resent)
	stats, err := fetchStats(cs[0], keyAlpha)
	if err != nil {
		return err
	}
	okOpen := countOK(open, nil)
	want := warmed + okOpen + okClosed + resent
	r.check(stats.Releases == want, "stats report %d releases, the benchmark received %d 200s", stats.Releases, want)

	open, closed = nil, nil
	r.set("live_heap_mb", "MiB", liveHeapMB())
	r.normalise(probe)
	return st.shutdown()
}

// serveHotTraced is serve-hot's traced run.
func serveHotTraced(r *run) error {
	st, _, err := bootHot(r.tr)
	if err != nil {
		return err
	}
	plan := hotPlan(r.seed)
	cs := st.clients(2)
	defer closeAll(cs)
	h0, m0 := cacheTotals(st.pub)
	rt0 := readRuntime()
	chunk := time.Duration(r.seconds / 4 * float64(time.Second))
	ss, p50, overhead := chunked(r, nil, func(first int, tr *tracer) []sample {
		return closedLoop(cs, first, after(chunk), plan, nil, tr)
	})
	rt1 := readRuntime()
	h1, m1 := cacheTotals(st.pub)
	r.count(ss)
	r.check(r.failed == 0, "%d of %d requests failed", r.failed, r.attempted)
	err = traceLayers(r, st, layerPlan{
		entries: tracedEntries(ss, plan, 300), sets: hotCatalog(), delta: lodes.DefaultDeltaConfig(),
	}, tracedE2E{
		samples: ss, p50Ms: p50, overhead: overhead, rt0: rt0, rt1: rt1, ops: len(ss),
		hits: h1 - h0, lookups: (h1 - h0) + (m1 - m0),
	})
	if err != nil {
		return err
	}
	return st.shutdown()
}
