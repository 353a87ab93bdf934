package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/lodes"
)

// gridGoldenPath holds, per seed, the hash of paper-grid's formatted
// output recorded from an earlier run, relative to the checkout root.
const gridGoldenPath = "perfbench/grid_golden.json"

// gridStep is one call of the reproduction, returning its formatted
// output.
type gridStep struct {
	name string
	run  func() (string, error)
}

// gridSteps are the calls of `cmd/experiments -all`, in its order, on
// harness h. passed receives the count of findings VerifyFindings
// passed.
func gridSteps(h *eval.Harness, passed *int) []gridStep {
	fig := func(f func() (*eval.FigureResult, error)) func() (string, error) {
		return func() (string, error) {
			res, err := f()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}
	}
	return []gridStep{
		{"prefetch", func() (string, error) { return "", h.PrefetchWorkloads() }},
		{"fig1", fig(h.Figure1)},
		{"fig2", fig(h.Figure2)},
		{"fig3", fig(h.Figure3)},
		{"fig4", fig(h.Figure4)},
		{"fig5", fig(h.Figure5)},
		{"finding6", func() (string, error) {
			pts, err := h.Finding6()
			return eval.FormatTruncated(pts), err
		}},
		{"verify", func() (string, error) {
			fs, err := h.VerifyFindings()
			*passed = 0
			for _, f := range fs {
				if f.Passed {
					*passed++
				}
			}
			return eval.FormatFindings(fs), err
		}},
	}
}

// newHarness builds the reproduction harness: the default-scale data
// from seed 1 and noise seed 1+seed with the paper's trial count, as
// `cmd/experiments -seed <seed>` does.
func newHarness(seed int64, tr *tracer) (*eval.Harness, error) {
	d, err := generate(lodes.DefaultConfig(), tr)
	if err != nil {
		return nil, err
	}
	return eval.NewHarness(d, dist.NewStreamFromSeed(seed+1), eval.PaperTrials)
}

// runGrid runs the steps one after another, each a sample whose due
// time is the previous step's end, and returns the samples and the hash
// of the concatenated outputs.
func runGrid(steps []gridStep, tr *tracer) ([]sample, string, error) {
	h := sha256.New()
	out := make([]sample, len(steps))
	prev := time.Now()
	for k, st := range steps {
		s := sample{Index: k, Kind: st.name, Due: prev, Issued: time.Now(), Closed: true}
		s.Sent = s.Issued
		text, err := st.run()
		s.Done = time.Now()
		tr.add("eval."+st.name, -1, 0, s.Sent, s.Done)
		if err != nil {
			return nil, "", errors.Join(errors.New(st.name), err)
		}
		s.Status = 200
		h.Write([]byte(text))
		out[k] = s
		prev = s.Done
	}
	return out, hex.EncodeToString(h.Sum(nil)), nil
}

// paperGrid is the reproduction itself: every figure, the truncation
// sweep and the findings check of `cmd/experiments -all`.
func paperGrid(r *run) error {
	if r.trace {
		return paperGridTraced(r)
	}
	var h *eval.Harness
	var times []float64
	for k := 0; k < setups; k++ {
		start := time.Now()
		var err error
		if h, err = newHarness(r.seed, nil); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", "s", median(times))
	var passed int
	ss, hash, err := runGrid(gridSteps(h, &passed), nil)
	if err != nil {
		return err
	}
	r.count(ss)
	lat := latenciesMs(ss, nil)
	t := tailOf(lat)
	r.set("p50_ms", "ms", percentile(lat, 50))
	r.set("tail_ms", "ms", t.Value)
	r.set("ops_per_s", "1/s", float64(len(ss))/wall(ss).Seconds())
	steps := map[string]float64{}
	for _, s := range ss {
		steps[s.Kind] = s.latency().Seconds()
	}
	r.note("tail", t)
	r.note("grid_s", wall(ss).Seconds())
	r.note("eval.figure_s", steps)
	r.note("findings_passed", passed)
	r.note("output_sha256", hash)
	r.set("live_heap_mb", "MiB", liveHeapMB())

	// The output is a pure function of the seed: Figure 1 on a second
	// harness formats the same bytes, and the whole output hashes to the
	// recorded value when one exists for this seed.
	again, err := newHarness(r.seed, nil)
	if err != nil {
		return err
	}
	a, err := h.Figure1()
	if err != nil {
		return err
	}
	b, err := again.Figure1()
	if err != nil {
		return err
	}
	r.check(a.Format() == b.Format(), "Figure 1 differs between two harnesses of one seed")
	golden, err := readGolden()
	if err != nil {
		return err
	}
	if want, ok := golden[strconv.FormatInt(r.seed, 10)]; ok {
		r.check(hash == want, "output hash %s, recorded %s", hash, want)
	}
	return nil
}

// readGolden reads the recorded output hashes; a checkout without the
// file has none.
func readGolden() (map[string]string, error) {
	b, err := os.ReadFile(gridGoldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m map[string]string
	return m, json.Unmarshal(b, &m)
}

// gridReleasePlan is the paper grid's queries as served releases:
// Workloads 1 and 2 under each paper mechanism at each ε of the grid
// where α=0.1 is valid, repeated rounds times. Smooth Laplace runs at a
// δ the demo tenants' δ budget covers.
func gridReleasePlan(rounds int) []op {
	var ops []op
	for k := 0; k < rounds; k++ {
		for _, attrs := range [][]string{eval.Workload1Attrs(), eval.Workload2Attrs()} {
			for _, m := range eval.PaperMechanisms() {
				for _, eps := range eval.PaperEpsGrid() {
					w := wireRelease{Attrs: attrs, Mechanism: m.String(), Alpha: 0.1, Eps: eps}
					if m == core.MechSmoothLaplace {
						w.Delta = replayDelta
					}
					req, err := coreRequest(w)
					if err != nil {
						panic(err) // paper mechanisms parse
					}
					if _, err := cellMechanism(req); err != nil {
						continue // outside the mechanism's validity region
					}
					ops = append(ops, releaseOp(keyAlpha, w, int64(len(ops))))
				}
			}
		}
	}
	return ops
}

// paperGridTraced is paper-grid's traced run: the grid with a span per
// step, Figure 1 traced and untraced for the tracing overhead, and the
// grid's queries replayed through a server over the harness's
// publisher.
func paperGridTraced(r *run) error {
	h, err := newHarness(r.seed, r.tr)
	if err != nil {
		return err
	}
	pub := h.Publisher()
	h0, m0 := cacheTotals(pub)
	rt0 := readRuntime()
	var passed int
	ss, _, err := runGrid(gridSteps(h, &passed), r.tr)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	h1, m1 := cacheTotals(pub)
	r.count(ss)
	steps := map[string]float64{}
	for _, s := range ss {
		steps[s.Kind] = s.latency().Seconds()
	}
	r.note("eval.figure_s", steps)
	r.note("grid_s", wall(ss).Seconds())
	r.note("findings_passed", passed)

	// Figure 1 alternately untraced and traced; the steps are the only
	// spans, so the overhead is theirs.
	var plain, traced []float64
	for k := 0; k < 6; k++ {
		tr := (*tracer)(nil)
		if k%2 == 1 {
			tr = r.tr
		}
		s, _, err := runGrid(gridSteps(h, &passed)[1:2], tr)
		if err != nil {
			return err
		}
		if tr == nil {
			plain = append(plain, ms(s[0].latency()))
		} else {
			traced = append(traced, ms(s[0].latency()))
		}
	}
	st, err := boot(h.Data, pub, "", nil)
	if err != nil {
		return err
	}
	err = traceLayers(r, st, layerPlan{
		entries: untracedEntries(gridReleasePlan(4)), sets: [][]string{eval.Workload1Attrs(), eval.Workload2Attrs()},
		delta: lodes.DefaultDeltaConfig(),
	}, tracedE2E{
		samples: ss, p50Ms: percentile(latenciesMs(ss, nil), 50), overhead: median(traced)/median(plain) - 1,
		rt0: rt0, rt1: rt1, ops: len(ss), hits: h1 - h0, lookups: (h1 - h0) + (m1 - m0),
	})
	if err != nil {
		return err
	}
	return st.shutdown()
}
