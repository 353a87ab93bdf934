package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/lodes"
)

// spendRecordBytes is the record size the WAL probe appends: the mean
// state-directory growth per charged request of serve-durable-churn
// (127.7 bytes on the recording host: a spend record with its framing
// and its share of the periodic digest records).
const spendRecordBytes = 128

// bootChurn sets serve-durable-churn up: the default-scale data, a
// durable server over a fresh state directory, and every marginal of
// the plan computed once.
func bootChurn(r *run) (*stack, error) {
	d, err := generate(lodes.DefaultConfig(), r.tr)
	if err != nil {
		return nil, err
	}
	dir, err := r.freshDir("state-")
	if err != nil {
		return nil, err
	}
	st, err := boot(d, nil, dir, nil)
	if err != nil {
		return nil, err
	}
	if err := st.pub.PrefetchMarginals(smallMarginals(d.Schema())); err != nil {
		return nil, err
	}
	_, err = warm(st, hotCatalog(), 64)
	return st, err
}

// churnRate is the request rate serve-durable-churn's plan is sized
// for, about its closed-loop throughput on the recording host.
const churnRate = 1600

// churnLength is how many plan entries a serve-durable-churn run sends:
// --seconds at churnRate, in whole stretches between advances. Every
// run thus absorbs the same number of quarters and ends just after one,
// in the same state whatever the host's speed; the live heap of a
// durable server depends on how many quarters it has absorbed.
func churnLength(seconds float64) int {
	return max(1, int(math.Round(seconds*churnRate/churnAdvanceEvery))) * churnAdvanceEvery
}

// serveDurableChurn is the durable write path: a closed loop on two
// connections of releases, batches and single cells charged to two
// tenants, with heavy-churn quarterly advances at fixed plan positions,
// for a fixed number of plan entries.
func serveDurableChurn(r *run) error {
	if r.trace {
		return serveDurableChurnTraced(r)
	}
	probe, err := newHostProbe(r.outDir)
	if err != nil {
		return err
	}
	defer probe.close()
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	st, times, err := setUp(setups, probe, func() (*stack, error) {
		st, err := bootChurn(r)
		if st != nil {
			dirs = append(dirs, st.stateDir)
		}
		return st, err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", "s", median(times))
	plan := churnPlan(r.seed, st.data.Schema())
	cs := st.clients(2)
	defer closeAll(cs)

	before, err := dirBytes(st.stateDir)
	if err != nil {
		return err
	}
	n := churnLength(r.seconds)
	ss, active := probedLoop(probe, cs, 0, func(i int) bool { return i >= n }, plan)
	after, err := dirBytes(st.stateDir)
	if err != nil {
		return err
	}
	r.count(ss)
	served := func(s sample) bool { return s.Kind != "advance" }
	r.setLatency(ss, served)
	ok := countOK(ss, served)
	r.set("ops_per_s", "1/s", float64(ok)/active.Seconds())
	var adv []float64
	kinds := map[string]int{}
	for _, s := range ss {
		kinds[s.Kind]++
		if s.Kind == "advance" {
			adv = append(adv, s.latency().Seconds())
		}
	}
	r.note("kinds", kinds)
	r.note("advance_s", median(adv))
	r.note("wal_bytes_per_op", float64(after-before)/float64(ok))

	// Every response is a 200, and after a shutdown the state directory
	// recovers each tenant's spend and release count and the epoch.
	r.check(r.failed == 0, "%d of %d requests failed", r.failed, r.attempted)
	ss = nil
	r.set("live_heap_mb", "MiB", liveHeapMB())

	pre := map[string]statsView{}
	for _, key := range []string{keyAlpha, keyBeta} {
		if pre[key], err = fetchStats(cs[0], key); err != nil {
			return err
		}
	}
	r.check(pre[keyAlpha].Epoch == kinds["advance"], "epoch %d after %d advances", pre[keyAlpha].Epoch, kinds["advance"])
	closeAll(cs)
	if err := st.shutdown(); err != nil {
		return err
	}
	d, err := generate(lodes.DefaultConfig(), nil)
	if err != nil {
		return err
	}
	re, err := boot(d, nil, st.stateDir, nil)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	h := re.srv.Handler()
	for key, want := range pre {
		got, err := statsInProcess(h, key)
		if err != nil {
			return err
		}
		r.check(got.SpentEps == want.SpentEps && got.SpentDelta == want.SpentDelta && got.Releases == want.Releases && got.Epoch == want.Epoch,
			"recovered stats %+v differ from pre-shutdown %+v", got, want)
	}
	r.normalise(probe)
	return re.shutdown()
}

// statsInProcess reads /v1/stats through the handler, without a socket.
func statsInProcess(h http.Handler, key string) (statsView, error) {
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	req.Header.Set("X-API-Key", key)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return statsView{}, fmt.Errorf("stats: status %d", rec.Code)
	}
	return decodeStats(rec.Body.Bytes())
}

// serveDurableChurnTraced is serve-durable-churn's traced run.
func serveDurableChurnTraced(r *run) error {
	st, err := bootChurn(r)
	if err != nil {
		return err
	}
	defer os.RemoveAll(st.stateDir)
	plan := churnPlan(r.seed, st.data.Schema())
	cs := st.clients(2)
	defer closeAll(cs)
	h0, m0 := cacheTotals(st.pub)
	rt0 := readRuntime()
	served := func(s sample) bool { return s.Kind != "advance" }
	chunk := time.Duration(r.seconds / 4 * float64(time.Second))
	all, p50, overhead := chunked(r, served, func(first int, tr *tracer) []sample {
		return closedLoop(cs, first, after(chunk), plan, nil, tr)
	})
	rt1 := readRuntime()
	h1, m1 := cacheTotals(st.pub)
	r.count(all)
	r.check(r.failed == 0, "%d of %d requests failed", r.failed, r.attempted)
	err = traceLayers(r, st, layerPlan{
		entries: tracedEntries(all, plan, 300), sets: smallMarginals(st.data.Schema()), delta: lodes.DefaultDeltaConfig(),
	}, tracedE2E{
		samples: all, p50Ms: p50, overhead: overhead,
		rt0: rt0, rt1: rt1, ops: len(all), hits: h1 - h0, lookups: (h1 - h0) + (m1 - m0),
	})
	if err != nil {
		return err
	}
	return st.shutdown()
}
