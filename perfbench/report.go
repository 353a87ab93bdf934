package main

import (
	"sort"

	"repro/internal/lodes"
)

// tracedE2E is what a traced run measured of its own end-to-end phase.
type tracedE2E struct {
	// samples are the requests (or grid steps) of the phase; the
	// generator's lateness is read from them.
	samples []sample
	// p50Ms is the untraced median latency, overhead the traced median
	// over the untraced one, minus one.
	p50Ms, overhead float64
	// rt0 and rt1 bracket the phase; ops is the operations it ran.
	rt0, rt1 runtimeSnap
	ops      int
	// hits and lookups are the publisher's cache counters over the phase.
	hits, lookups int64
}

// layerPlan is what a workload's traced run replays against the layers.
type layerPlan struct {
	entries []replayEntry     // plan entries replayed request by request
	sets    [][]string        // the workload's distinct marginals
	delta   lodes.DeltaConfig // the workload's quarterly churn
}

// The traced run absorbs replayQuarters quarters step by step, and each
// of the WAL probe's two appenders writes walProbeAppends records.
const (
	replayQuarters  = 2
	walProbeAppends = 150
)

// traceLayers runs the replays every traced run shares on the stack and
// records the per-layer metrics. The advance replay runs last: it moves
// the publisher to later epochs.
func traceLayers(r *run, st *stack, p layerPlan, e tracedE2E) error {
	req, err := replayRequests(r, st, p.entries)
	if err != nil {
		return err
	}
	rows, err := replayScans(r, st.pub, p.sets)
	if err != nil {
		return err
	}
	if err := replayTableProbes(r, st.pub.Dataset()); err != nil {
		return err
	}
	perSync, err := walProbe(r, spendRecordBytes, walProbeAppends)
	if err != nil {
		return err
	}
	adv, err := replayAdvances(r, st.pub, p.delta, replayQuarters, p.sets)
	if err != nil {
		return err
	}
	setLayerMetrics(r, e, req, adv, rows, perSync)
	return nil
}

// decomposedLayers are the layers a served request's latency is split
// into, in the order they are reported.
var decomposedLayers = []string{"wire", "server", "core", "table.miss", "mech", "privacy"}

// setLayerMetrics turns the run's spans and counts into the per-layer
// metrics.
func setLayerMetrics(r *run, e tracedE2E, req replayTotals, adv advanceTotals, scanRows int, perSync float64) {
	r.tr.mu.Lock()
	spans := append([]span(nil), r.tr.spans...)
	r.tr.mu.Unlock()
	self := selfTimes(spans)
	dur := byName(spans, nil)
	selfBy := byName(spans, self)
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}

	// The wire layer is the self time of the requests that were
	// replayed, the ones with a server span below them.
	replayed := map[int]bool{}
	for _, s := range spans {
		if s.Name == "server" {
			replayed[s.Parent] = true
		}
	}
	var wire []float64
	for _, s := range spans {
		if replayed[s.ID] {
			wire = append(wire, us(self[s.ID]))
		}
	}
	sort.Float64s(wire)
	late := lateMs(e.samples)
	r.set("loadgen.late_p99_ms", "ms", percentile(late, 99))
	r.set("wire.self_us_p50", "us", percentile(wire, 50))
	r.set("wire.self_us_p99", "us", percentile(wire, 99))
	r.set("server.serve_us_p50", "us", median(dur["server"]))
	r.set("server.self_us_p50", "us", median(selfBy["server"]))
	r.set("server.allocs_per_op", "count", float64(req.allocs)/float64(req.serverCalls))
	r.set("server.resp_bytes_p50", "B", median(req.respBytes))
	r.set("core.release_us_p50", "us", median(dur["core"]))
	r.set("core.self_us_p50", "us", median(selfBy["core"]))
	r.set("core.cache_hit_ratio", "ratio", float64(e.hits)/float64(e.lookups))
	r.set("core.cache_patches", "count", float64(adv.patches))
	r.set("core.cache_evictions", "count", float64(adv.evictions))
	r.set("core.advance_ms_p50", "ms", median(dur["core.advance"])/1e3)
	r.set("table.scan_ms_p50", "ms", median(dur["table.scan"])/1e3)
	r.set("table.scan_ns_per_row", "ns", median(dur["table.scan"])*1e3/float64(scanRows))
	r.set("table.merge_ms_p50", "ms", median(dur["table.merge"])/1e3)
	r.set("table.patch_ms_p50", "ms", median(dur["table.patch"])/1e3)
	r.set("table.patch_rescan_cells", "count", float64(adv.rescanCells))
	r.set("table.filter_ms", "ms", median(dur["table.filter"])/1e3)
	r.set("lodes.generate_s", "s", median(dur["lodes.generate"])/1e6)
	r.set("lodes.generate_delta_ms", "ms", median(dur["lodes.generate_delta"])/1e3)
	r.set("lodes.apply_delta_ms", "ms", median(dur["lodes.apply_delta"])/1e3)
	r.set("mech.noise_us_p50", "us", median(dur["mech"]))
	r.set("mech.ns_per_cell", "ns", sum(dur["mech"])*1e3/float64(req.cells))
	r.set("privacy.spend_us_p50", "us", median(dur["privacy"]))
	appends := sortedCopy(dur["wal.append"])
	r.set("wal.append_us_p50", "us", percentile(appends, 50))
	r.set("wal.append_us_p99", "us", percentile(appends, 99))
	r.set("wal.records_per_sync", "count", perSync)
	r.set("bipartite.truncate_ms", "ms", median(dur["bipartite.truncate"])/1e3)
	r.set("runtime.gc_cpu_fraction", "ratio", (e.rt1.gcCPU-e.rt0.gcCPU)/(e.rt1.totalCPU-e.rt0.totalCPU))
	r.set("runtime.allocs_per_op", "count", float64(e.rt1.allocs-e.rt0.allocs)/float64(e.ops))

	// The end-to-end median split into the generator's lateness and each
	// layer's self time per request (the median over requests of the
	// request's summed self time in that layer); the remainder is what
	// no layer accounts for.
	perReq := map[string]map[int]float64{}
	for _, s := range spans {
		name := s.Name
		if replayed[s.ID] {
			name = "wire"
		}
		if s.Req < 0 || (s.Name == "request" && name != "wire") {
			continue
		}
		if perReq[name] == nil {
			perReq[name] = map[int]float64{}
		}
		perReq[name][s.Req] += us(self[s.ID])
	}
	shares := map[string]float64{"loadgen.late": percentile(late, 50) / e.p50Ms}
	explained := percentile(late, 50) * 1e3
	n := len(wire)
	for _, l := range decomposedLayers {
		// A layer a request did not reach (no scan on a cache hit)
		// contributes zero to it.
		vals := make([]float64, 0, n)
		for _, v := range perReq[l] {
			vals = append(vals, v)
		}
		for len(vals) < n {
			vals = append(vals, 0)
		}
		m := 0.0
		if len(vals) > 0 {
			m = median(vals)
		}
		shares[l] = m / 1e3 / e.p50Ms
		explained += m
	}
	unexplained := (e.p50Ms*1e3 - explained) / (e.p50Ms * 1e3)
	shares["unexplained"] = unexplained
	r.set("trace.unexplained_share_p50", "ratio", unexplained)
	r.set("trace.overhead_share", "ratio", e.overhead)
	r.note("p50_decomposition", map[string]any{"p50_ms": e.p50Ms, "shares": shares})
	byKind := map[string]float64{}
	for k, v := range req.serverByKind {
		byKind[k] = median(v)
	}
	r.note("server.serve_us_p50_by_kind", byKind)
	counts := map[string]int{}
	for name, v := range dur {
		counts[name] = len(v)
	}
	r.note("span_counts", counts)
}
