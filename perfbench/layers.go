package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/lodes"
	"repro/internal/mech"
	"repro/internal/privacy"
	"repro/internal/table"
	"repro/internal/wal"
)

// The traced run replays a workload's plan against each layer's public
// call, one call after another, and records a span around each. The
// spans of one plan entry share its index as request id, and each
// replayed call names the call one layer up as its parent:
//
//	request    the traced HTTP request           (no parent)
//	server     Handler().ServeHTTP in process    (parent request)
//	core       Publisher.Release*Tagged          (parent server)
//	table.miss Index.Compute, when core missed   (parent core)
//	mech       mech.ReleaseCells / ReleaseCell   (parent core)
//	privacy    Accountant.SpendTagged            (parent core)
//
// so each layer's self time is its span minus the replays below it,
// and the request's self time is the wire's: the client's latency minus
// the in-process handler time of the same plan entry.

// replaySeqBase numbers the sequence numbers replays send, far from the
// plans' own, so a durable server charges each replay afresh instead of
// serving it from its replay cache.
const replaySeqBase = 1 << 30

// withSeq returns a copy of a JSON request body with its seq replaced.
func withSeq(body []byte, seq int64) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		panic(err) // plan bodies are well-formed JSON objects
	}
	m["seq"] = json.RawMessage(fmt.Sprint(seq))
	return mustJSON(m)
}

// decodeOp recovers the wire requests of a release, batch or cell op.
func decodeOp(o op) []wireRelease {
	if o.Kind == "batch" {
		var b wireBatch
		if err := json.Unmarshal(o.Body, &b); err != nil {
			panic(err)
		}
		return b.Requests
	}
	var w wireRelease
	if err := json.Unmarshal(o.Body, &w); err != nil {
		panic(err)
	}
	return []wireRelease{w}
}

func coreRequest(w wireRelease) (core.Request, error) {
	kind, err := core.ParseMechanismKind(w.Mechanism)
	return core.Request{Attrs: w.Attrs, Mechanism: kind, Alpha: w.Alpha, Eps: w.Eps, Delta: w.Delta}, err
}

// cellMechanism builds the cell mechanism a request names, as the
// publisher does.
func cellMechanism(req core.Request) (mech.CellMechanism, error) {
	switch req.Mechanism {
	case core.MechLogLaplace:
		return mech.NewLogLaplace(req.Alpha, req.Eps)
	case core.MechSmoothGamma:
		return mech.NewSmoothGamma(req.Alpha, req.Eps)
	case core.MechSmoothLaplace:
		return mech.NewSmoothLaplace(req.Alpha, req.Eps, req.Delta)
	case core.MechEdgeLaplace:
		return mech.NewEdgeLaplace(req.Eps)
	}
	return nil, fmt.Errorf("no cell mechanism for %v", req.Mechanism)
}

// allocCounter reads the process's cumulative heap allocation count.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// replayTotals are the counts the request replays add up.
type replayTotals struct {
	cells       int    // noisy cells drawn by mech replays
	serverCalls int    // ServeHTTP calls
	allocs      uint64 // heap objects allocated inside ServeHTTP
	respBytes   []float64
	// serverByKind holds ServeHTTP times per op kind, in µs.
	serverByKind map[string][]float64
}

// replayEntry is one plan entry the traced run replays: its op, its
// request id, and the span of its traced end-to-end request (0 when it
// was not sent traced, and the replay sends it over loopback instead).
type replayEntry struct {
	op   op
	req  int
	span int
}

// tracedEntries picks up to n successful traced requests, evenly spaced,
// other than advances, as replay entries.
func tracedEntries(ss []sample, plan func(int) op, n int) []replayEntry {
	var traced []sample
	for _, s := range ss {
		if s.Span != 0 && s.ok() && s.Kind != "advance" {
			traced = append(traced, s)
		}
	}
	var out []replayEntry
	step := max(len(traced)/n, 1)
	for k := 0; k < len(traced) && len(out) < n; k += step {
		s := traced[k]
		out = append(out, replayEntry{op: plan(s.Index), req: s.Index, span: s.Span})
	}
	return out
}

// untracedEntries makes replay entries of ops that were not sent traced.
func untracedEntries(ops []op) []replayEntry {
	out := make([]replayEntry, len(ops))
	for k, o := range ops {
		out[k] = replayEntry{op: o, req: k}
	}
	return out
}

// replayRequests replays each entry through every layer in turn. The
// wire layer is the entry's traced request, under the workload's own
// load; an entry without one is first sent over loopback on its own.
func replayRequests(r *run, st *stack, entries []replayEntry) (replayTotals, error) {
	tot := replayTotals{serverByKind: map[string][]float64{}}
	c := newClient(st.base)
	defer c.close()
	h := st.srv.Handler()
	ac := newAllocCounter()
	schema := st.pub.Dataset().Schema()
	stream := dist.NewStreamFromSeed(r.seed).Split("replay")
	for k, e := range entries {
		o, id, wire := e.op, e.req, e.span
		seq := int64(replaySeqBase + 3*k)
		if wire == 0 {
			wo := o
			wo.Body = withSeq(o.Body, seq)
			var status int
			var err error
			wire, err = r.tr.time("request", id, 0, func() error {
				var err error
				status, _, err = c.do(wo)
				return err
			})
			if err != nil || status != http.StatusOK {
				return tot, fmt.Errorf("replay %d wire: status %d: %v", k, status, err)
			}
		}
		// server: the same request through the handler in process.
		req := httptest.NewRequest(http.MethodPost, o.Path, bytes.NewReader(withSeq(o.Body, seq+1)))
		req.Header.Set("X-API-Key", o.Key)
		rec := httptest.NewRecorder()
		a0 := ac.read()
		start := time.Now()
		h.ServeHTTP(rec, req)
		end := time.Now()
		srvID := r.tr.add("server", id, wire, start, end)
		tot.serverByKind[o.Kind] = append(tot.serverByKind[o.Kind], us(end.Sub(start)))
		tot.allocs += ac.read() - a0
		tot.serverCalls++
		tot.respBytes = append(tot.respBytes, float64(rec.Body.Len()))
		if rec.Code != http.StatusOK {
			return tot, fmt.Errorf("replay %d server: status %d: %s", k, rec.Code, rec.Body.Bytes())
		}
		draws := stream.SplitIndex("entry", k)
		acct, loss, err := replayCore(r, st, schema, o, id, srvID, seq+2, draws, &tot)
		if err != nil {
			return tot, fmt.Errorf("replay %d: %w", k, err)
		}
		// A durable server journals a state digest every few records, a
		// cost several times a plain charge's. Each entry journals four
		// records, so without padding the digest would land on the same
		// replayed call every time; zero to three untimed charges per
		// entry spread it over all of them.
		for p := int(draws.Float64() * 4); p > 0; p-- {
			if err := acct.SpendTagged(loss, &privacy.SpendTag{Seq: seq + 3, Digest: "perfbench-pad"}); err != nil {
				return tot, fmt.Errorf("replay %d pad: %w", k, err)
			}
		}
	}
	return tot, nil
}

// replayCore replays one op's publisher call, then the noise draws and
// the budget charge it made, and a scan if the call missed the cache.
// It returns the charged accountant and one loss it charged.
func replayCore(r *run, st *stack, schema *table.Schema, o op, k, parent int, seq int64, s *dist.Stream, tot *replayTotals) (*privacy.Accountant, privacy.Loss, error) {
	fail := func(err error) (*privacy.Accountant, privacy.Loss, error) { return nil, privacy.Loss{}, err }
	ws := decodeOp(o)
	reqs := make([]core.Request, len(ws))
	for i, w := range ws {
		var err error
		if reqs[i], err = coreRequest(w); err != nil {
			return fail(err)
		}
	}
	t, ok := st.reg.Lookup(o.Key)
	if !ok {
		return fail(fmt.Errorf("no tenant for key"))
	}
	tag := &privacy.SpendTag{Seq: seq, Digest: "perfbench-replay"}
	_, missBefore := cacheTotals(st.pub)
	var rels []*core.Release
	var cellLoss privacy.Loss
	coreID, err := r.tr.time("core", k, parent, func() error {
		var err error
		switch o.Kind {
		case "batch":
			rels, err = st.pub.ReleaseBatchTagged(t.Acct, reqs, s, tag)
		case "cell":
			_, _, cellLoss, _, err = st.pub.ReleaseSingleCellTagged(t.Acct, reqs[0], ws[0].Values, s, tag)
		default:
			var rel *core.Release
			rel, err = st.pub.ReleaseMarginalTagged(t.Acct, reqs[0], s, tag)
			rels = []*core.Release{rel}
		}
		return err
	})
	if err != nil {
		return fail(fmt.Errorf("core: %w", err))
	}
	if _, missAfter := cacheTotals(st.pub); missAfter > missBefore {
		ix := st.pub.Dataset().WorkerFull.Index()
		for _, req := range reqs {
			q, err := table.NewQuery(schema, req.Attrs...)
			if err != nil {
				return fail(err)
			}
			r.tr.time("table.miss", k, coreID, func() error { ix.Compute(q); return nil })
		}
	}
	// mech: the noise draws, on the truths the publisher served.
	var losses []privacy.Loss
	for i, req := range reqs {
		m, err := cellMechanism(req)
		if err != nil {
			return fail(err)
		}
		truth, err := st.pub.Marginal(req.Attrs)
		if err != nil {
			return fail(err)
		}
		cells := core.CellInputs(truth)
		draw := s.SplitIndex("mech", i)
		if o.Kind == "cell" {
			key, err := truth.Query.CellKeyForValues(ws[0].Values...)
			if err != nil {
				return fail(err)
			}
			if _, err := r.tr.time("mech", k, coreID, func() error { _, err := m.ReleaseCell(cells[key], draw); return err }); err != nil {
				return fail(err)
			}
			tot.cells++
			losses = append(losses, cellLoss)
			continue
		}
		if _, err := r.tr.time("mech", k, coreID, func() error { _, err := mech.ReleaseCells(m, cells, draw); return err }); err != nil {
			return fail(err)
		}
		tot.cells += len(cells)
		losses = append(losses, rels[i].Loss)
	}
	// privacy: the budget charge, journaled when the server is durable.
	ptag := &privacy.SpendTag{Seq: seq + replaySeqBase/2, Digest: "perfbench-replay"}
	if _, err := r.tr.time("privacy", k, coreID, func() error {
		if o.Kind == "batch" {
			return t.Acct.SpendAllTagged(losses, ptag)
		}
		return t.Acct.SpendTagged(losses[0], ptag)
	}); err != nil {
		return fail(err)
	}
	return t.Acct, losses[0], nil
}

// replayScans times Index.Compute of each working-set marginal on the
// publisher's current index and returns the rows each scan read.
func replayScans(r *run, pub *core.Publisher, sets [][]string) (rows int, err error) {
	d := pub.Dataset()
	ix := d.WorkerFull.Index()
	for _, attrs := range sets {
		q, err := table.NewQuery(d.Schema(), attrs...)
		if err != nil {
			return 0, err
		}
		r.tr.time("table.scan", -1, 0, func() error { ix.Compute(q); return nil })
	}
	return d.NumJobs(), nil
}

// advanceTotals are the counts the advance replays add up.
type advanceTotals struct {
	rescanCells int
	patches     int64
	evictions   int64
}

// replayAdvances absorbs quarters generated deltas, timing delta
// generation and application, the index merge and the patch of each
// working-set view separately, then the publisher's whole Advance.
func replayAdvances(r *run, pub *core.Publisher, cfg lodes.DeltaConfig, quarters int, sets [][]string) (advanceTotals, error) {
	var tot advanceTotals
	for q := 0; q < quarters; q++ {
		d := pub.Dataset()
		var dl *lodes.Delta
		if _, err := r.tr.time("lodes.generate_delta", -1, 0, func() error {
			var err error
			dl, err = lodes.GenerateDelta(d, cfg, dist.NewStreamFromSeed(r.seed).SplitIndex("quarter", q))
			return err
		}); err != nil {
			return tot, err
		}
		var next *lodes.Dataset
		if _, err := r.tr.time("lodes.apply_delta", -1, 0, func() error {
			var err error
			next, err = d.ApplyDelta(dl)
			return err
		}); err != nil {
			return tot, err
		}
		ids, rows, kept := dl.TouchedKept(d)
		base := d.WorkerFull.Index()
		var merged *table.Index
		if _, err := r.tr.time("table.merge", -1, 0, func() error {
			var err error
			merged, err = table.MergeIndex(base, next.WorkerFull, ids, rows)
			return err
		}); err != nil {
			return tot, err
		}
		views := make([]*table.MarginalView, len(sets))
		for i, attrs := range sets {
			qy, err := table.NewQuery(d.Schema(), attrs...)
			if err != nil {
				return tot, err
			}
			if views[i], err = table.NewMarginalView(base, qy); err != nil {
				return tot, err
			}
		}
		if _, err := r.tr.time("table.patch", -1, 0, func() error {
			f, err := table.NewPatchFrame(base, merged, ids, kept)
			if err != nil {
				return err
			}
			for _, v := range views {
				_, ps, err := v.ApplyFrame(f)
				if err != nil {
					return err
				}
				tot.rescanCells += ps.RescanCells
			}
			return nil
		}); err != nil {
			return tot, err
		}
		next, merged, views = nil, nil, nil
		if _, err := r.tr.time("core.advance", -1, 0, func() error { return pub.Advance(dl) }); err != nil {
			return tot, err
		}
		cs := pub.MarginalCacheStats()
		tot.patches += cs.Patches
		tot.evictions += cs.Evictions
	}
	return tot, nil
}

// replayTableProbes times Table.Filter (keeping half the
// establishments, the shape bipartite truncation filters with) and
// bipartite.Truncate at each θ of the paper's grid on the dataset.
func replayTableProbes(r *run, d *lodes.Dataset) error {
	t := d.WorkerFull
	for k := 0; k < 3; k++ {
		r.tr.time("table.filter", -1, 0, func() error {
			t.Filter(func(row int) bool { return t.Entity(row)%2 == 0 })
			return nil
		})
	}
	for _, theta := range eval.PaperThetaGrid() {
		if _, err := r.tr.time("bipartite.truncate", -1, 0, func() error {
			_, err := bipartite.Truncate(t, theta)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// walProbe appends records of the given size to a fresh log from two
// appenders, as two connections' charges would, and returns the
// records per fsync.
func walProbe(r *run, recordSize, perAppender int) (float64, error) {
	dir, err := r.freshDir("wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return 0, err
	}
	rec := bytes.Repeat([]byte{0xa5}, recordSize)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perAppender && errs[w] == nil; k++ {
				_, errs[w] = r.tr.time("wal.append", -1, 0, func() error { return st.Append(rec) })
			}
		}(w)
	}
	wg.Wait()
	perSync := float64(st.Appends()) / float64(st.Syncs())
	if err := st.Close(); err != nil {
		return 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return perSync, nil
}

// runtimeSnap is the process's cumulative CPU and allocation counters.
type runtimeSnap struct {
	gcCPU, totalCPU float64
	allocs          uint64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return runtimeSnap{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocs: s[2].Value.Uint64()}
}
