package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/lodes"
	"repro/internal/table"
)

// quarterly-ingest absorbs one-quarter advances back to back on one
// connection while the other reads at ingestReadRate, open loop, for
// ingestReadsPerQuarter requests per quarter. The traced run absorbs
// ingestTracedQuarters.
const (
	ingestReadRate        = 50.0
	ingestReadsPerQuarter = 25
	ingestTracedQuarters  = 8
)

// ingestQuarters is how many quarters a quarterly-ingest run absorbs:
// 8 per 12.5 --seconds (16 at 30 s), a fixed count for a given
// --seconds, so that every run ends in the same state.
func ingestQuarters(seconds float64) int {
	return 8 * max(1, int(math.Round(seconds/12.5)))
}

// ingestSetups is how many times quarterly-ingest sets up; each set-up
// generates the paper-scale data, so it does fewer than the others.
const ingestSetups = 3

// bootIngest sets quarterly-ingest up: the paper-scale data, an
// in-memory server absorbing calibrated-churn deltas, the working set
// computed and released once, and one quarter absorbed. The publisher
// builds the maintained view of each cached marginal lazily, on the
// first advance after boot; that one-off cost belongs to set-up, and
// the measured quarters are the steady ones an agency pays each
// quarter.
func bootIngest(tr *tracer) (*stack, error) {
	d, err := generate(lodes.LargeConfig(), tr)
	if err != nil {
		return nil, err
	}
	cfg := lodes.CalibratedDeltaConfig()
	st, err := boot(d, nil, "", &cfg)
	if err != nil {
		return nil, err
	}
	if err := st.pub.PrefetchMarginals(ingestWorkingSet()); err != nil {
		return nil, err
	}
	if _, err := warm(st, ingestWorkingSet(), 4*len(ingestWorkingSet())); err != nil {
		return nil, err
	}
	c := newClient(st.base)
	defer c.close()
	_, err = c.mustDo(advanceOp())
	return st, err
}

// ingest runs the advances on c while the reader plan runs open loop on
// readers, and returns both sets of samples. Each quarter starts on a
// collected heap, as it does in service: between two quarters the
// server idles for months, and the Go runtime collects an idle heap
// every two minutes. The collection is not part of any latency, and it
// keeps the previous quarter's garbage out of the next one's time.
func ingest(c *client, readers []*client, quarters, first int, plan func(int) op, tr *tracer) (advances, reads []sample) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for q := 0; q < quarters; q++ {
			runtime.GC()
			now := time.Now()
			s := sample{Index: q, Due: now, Issued: now, Closed: true}
			c.send(&s, advanceOp(), false, tr)
			advances = append(advances, s)
		}
	}()
	reads = openLoop(readers, first, quarters*ingestReadsPerQuarter, ingestReadRate, plan, nil, tr)
	<-done
	return advances, reads
}

// quarterlyIngest is the agency's quarterly update at paper scale, with
// a reader measuring what ingest costs reads.
func quarterlyIngest(r *run) error {
	if r.trace {
		return quarterlyIngestTraced(r)
	}
	st, times, err := setUp(ingestSetups, nil, func() (*stack, error) { return bootIngest(nil) })
	if err != nil {
		return err
	}
	r.set("setup_s", "s", median(times))
	cs := st.clients(2)
	defer closeAll(cs)
	quarters := ingestQuarters(r.seconds)
	advances, reads := ingest(cs[0], cs[1:], quarters, 0, ingestReaderPlan(r.seed), nil)
	r.count(advances)
	r.count(reads)

	// The quarter is the unit of work: p50_ms and tail_ms are per-quarter
	// advance latencies. The reads show what ingest costs readers.
	r.setLatency(advances, nil)
	r.set("ops_per_s", "1/s", float64(len(advances))/busy(advances).Seconds())
	lat := latenciesMs(reads, nil)
	late := lateMs(reads)
	r.note("read_ms", map[string]any{"p50": finite(percentile(lat, 50)), "tail": finiteTail(tailOf(lat))})
	r.note("loadgen.late_ms", map[string]float64{"p50": percentile(late, 50), "p99": percentile(late, 99)})
	adv := make([]float64, len(advances))
	for i, s := range advances {
		adv[i] = s.latency().Seconds()
	}
	r.note("advance_s_each", adv)
	reads, advances = nil, nil
	r.set("live_heap_mb", "MiB", liveHeapMB())

	// Every request succeeded, the server is at epoch 1+8 (the set-up
	// quarter and the measured ones), and every working-set truth it
	// serves equals a fresh scan of the final data.
	r.check(r.failed == 0, "%d of %d requests failed", r.failed, r.attempted)
	stats, err := fetchStats(cs[0], keyAlpha)
	if err != nil {
		return err
	}
	r.check(stats.Epoch == 1+quarters, "epoch %d after 1+%d advances", stats.Epoch, quarters)
	if err := checkTruths(r, st); err != nil {
		return err
	}
	return st.shutdown()
}

// checkTruths compares each working-set truth the publisher serves with
// Compute on an index built from scratch over its current data.
func checkTruths(r *run, st *stack) error {
	d := st.pub.Dataset()
	ix := table.BuildIndex(d.WorkerFull)
	for _, attrs := range ingestWorkingSet() {
		got, err := st.pub.Marginal(attrs)
		if err != nil {
			return err
		}
		q, err := table.NewQuery(d.Schema(), attrs...)
		if err != nil {
			return err
		}
		want := ix.Compute(q)
		r.check(slices.Equal(got.Counts, want.Counts) &&
			slices.Equal(got.MaxEntityContribution, want.MaxEntityContribution) &&
			slices.Equal(got.SecondEntityContribution, want.SecondEntityContribution) &&
			slices.Equal(got.EntityCount, want.EntityCount),
			"maintained truth of %v differs from a fresh scan", attrs)
	}
	return nil
}

// quarterlyIngestTraced is quarterly-ingest's traced run. The tracing
// overhead is measured on reads before ingest starts.
func quarterlyIngestTraced(r *run) error {
	st, err := bootIngest(r.tr)
	if err != nil {
		return err
	}
	cs := st.clients(2)
	defer closeAll(cs)
	plan := ingestReaderPlan(r.seed)
	ss, p50, overhead := chunked(r, nil, func(first int, tr *tracer) []sample {
		return openLoop(cs[1:], first, ingestTracedQuarters*ingestReadsPerQuarter/8, ingestReadRate, plan, nil, tr)
	})
	r.count(ss)
	h0, m0 := cacheTotals(st.pub)
	rt0 := readRuntime()
	advances, reads := ingest(cs[0], cs[1:], ingestTracedQuarters, ingestTracedQuarters*ingestReadsPerQuarter/2, plan, r.tr)
	rt1 := readRuntime()
	h1, m1 := cacheTotals(st.pub)
	r.count(advances)
	r.count(reads)
	r.check(r.failed == 0, "%d of %d requests failed", r.failed, r.attempted)
	adv := make([]float64, len(advances))
	for i, s := range advances {
		adv[i] = s.latency().Seconds()
	}
	r.note("advance_s", median(adv))
	err = traceLayers(r, st, layerPlan{
		entries: tracedEntries(ss, plan, 150), sets: ingestWorkingSet(), delta: lodes.CalibratedDeltaConfig(),
	}, tracedE2E{
		samples: reads, p50Ms: p50, overhead: overhead, rt0: rt0, rt1: rt1, ops: len(reads) + len(advances),
		hits: h1 - h0, lookups: (h1 - h0) + (m1 - m0),
	})
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	return st.shutdown()
}
