package main

import (
	"encoding/json"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/lodes"
	"repro/internal/table"
)

// Tenant and admin keys of config.Demo, the roster every workload serves.
const (
	keyAlpha = "tenant-alpha-key"
	keyBeta  = "tenant-beta-key"
	keyAdmin = "admin-demo-key"
)

// op is one planned request: a kind (release, batch, cell, advance or
// stats), its endpoint, the API key it is sent with and its body (nil
// for a GET).
type op struct {
	Kind string
	Path string
	Key  string
	Body []byte
}

// wireRelease is the body of /v1/release and /v1/cell and one item of
// /v1/batch, with the fields the plans use.
type wireRelease struct {
	Attrs     []string `json:"attrs"`
	Mechanism string   `json:"mechanism"`
	Alpha     float64  `json:"alpha"`
	Eps       float64  `json:"eps"`
	Delta     float64  `json:"delta,omitempty"`
	Values    []string `json:"values,omitempty"`
	Seq       *int64   `json:"seq,omitempty"`
}

type wireBatch struct {
	Requests []wireRelease `json:"requests"`
	Seq      int64         `json:"seq"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // fixed plan structs; cannot fail
	}
	return b
}

func releaseOp(key string, r wireRelease, seq int64) op {
	r.Seq = &seq
	return op{Kind: "release", Path: "/v1/release", Key: key, Body: mustJSON(r)}
}

func cellOp(key string, r wireRelease, seq int64) op {
	r.Seq = &seq
	return op{Kind: "cell", Path: "/v1/cell", Key: key, Body: mustJSON(r)}
}

func batchOp(key string, rs []wireRelease, seq int64) op {
	return op{Kind: "batch", Path: "/v1/batch", Key: key, Body: mustJSON(wireBatch{Requests: rs, Seq: seq})}
}

func advanceOp() op {
	return op{Kind: "advance", Path: "/v1/admin/advance", Key: keyAdmin, Body: []byte(`{"quarters":1}`)}
}

func statsOp(key string) op { return op{Kind: "stats", Path: "/v1/stats", Key: key} }

// hotCatalog is the serving query mix, most popular first: the paper's
// Workload 1 marginal, then successively less popular cuts (the catalog
// of cmd/ereeload).
func hotCatalog() [][]string {
	return [][]string{
		{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership},
		{lodes.AttrIndustry},
		{lodes.AttrSex},
		{lodes.AttrIndustry, lodes.AttrOwnership},
		{lodes.AttrAge},
		{lodes.AttrOwnership},
		{lodes.AttrRace, lodes.AttrEthnicity},
		{lodes.AttrEducation},
	}
}

// zipf returns an inverse-CDF picker over n ranks with weight(k) ∝
// 1/(k+1)^s, mapping a uniform u in [0,1) to a rank.
func zipf(n int, s float64) func(u float64) int {
	cum := make([]float64, n)
	var total float64
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), s)
		cum[k] = total
	}
	return func(u float64) int {
		k := sort.SearchFloat64s(cum, u*total)
		if k == n {
			k--
		}
		return k
	}
}

// hotPlan is the serve-hot plan: entry i is a release of a Zipf(1.1)
// pick from the catalog by tenant alpha, under smooth-gamma α=0.1
// ε=0.5, with explicit sequence number i. Each entry is a pure function
// of (seed, i).
func hotPlan(seed int64) func(i int) op {
	cat := hotCatalog()
	pick := zipf(len(cat), 1.1)
	root := dist.NewStreamFromSeed(seed).Split("serve-hot")
	return func(i int) op {
		k := pick(root.SplitIndex("entry", i).Float64())
		return releaseOp(keyAlpha, wireRelease{Attrs: cat[k], Mechanism: "smooth-gamma", Alpha: 0.1, Eps: 0.5}, int64(i))
	}
}

// smallMarginals lists every one-to-three-attribute marginal of the
// schema (92 for the eight LODES attributes), in a fixed order.
func smallMarginals(schema *table.Schema) [][]string {
	names := schema.Names()
	var out [][]string
	for i := range names {
		out = append(out, []string{names[i]})
		for j := i + 1; j < len(names); j++ {
			out = append(out, []string{names[i], names[j]})
			for k := j + 1; k < len(names); k++ {
				out = append(out, []string{names[i], names[j], names[k]})
			}
		}
	}
	return out
}

// erEEMechanisms are the three ER-EE mechanisms the churn plan rotates
// through, with parameters valid for every marginal: smooth-gamma needs
// α+1 < e^(ε/5), smooth-laplace α+1 ≤ e^(ε/(2·ln(1/δ))), and its δ is
// small enough that the demo tenants' δ budget of 0.5 covers every
// charge of a run.
var erEEMechanisms = []wireRelease{
	{Mechanism: "log-laplace", Alpha: 0.1, Eps: 1},
	{Mechanism: "smooth-laplace", Alpha: 0.1, Eps: 3, Delta: replayDelta},
	{Mechanism: "smooth-gamma", Alpha: 0.1, Eps: 1},
}

// replayDelta is the δ of every smooth-laplace request the benchmark
// sends.
const replayDelta = 1e-6

// churnAdvanceEvery places a one-quarter advance at every
// churnAdvanceEvery-th plan position.
const churnAdvanceEvery = 2500

// churnPlan is the serve-durable-churn plan over the schema: 80%
// releases, 10% batches of four marginals and 10% single cells, each
// by tenant alpha or beta with equal odds, attribute sets uniform over
// every one-to-three-attribute marginal, mechanisms rotating by
// position, and a one-quarter advance at fixed positions. Explicit
// sequence number i makes every entry a distinct charge.
func churnPlan(seed int64, schema *table.Schema) func(i int) op {
	sets := smallMarginals(schema)
	root := dist.NewStreamFromSeed(seed).Split("serve-durable-churn")
	return func(i int) op {
		if i%churnAdvanceEvery == churnAdvanceEvery-1 {
			return advanceOp()
		}
		e := root.SplitIndex("entry", i)
		key := keyAlpha
		if e.Float64() < 0.5 {
			key = keyBeta
		}
		kind := e.Float64()
		m := erEEMechanisms[i%len(erEEMechanisms)]
		draw := func() wireRelease {
			r := m
			r.Attrs = sets[int(e.Float64()*float64(len(sets)))]
			return r
		}
		seq := int64(i)
		switch {
		case kind < 0.8:
			return releaseOp(key, draw(), seq)
		case kind < 0.9:
			rs := make([]wireRelease, 4)
			for k := range rs {
				rs[k] = draw()
			}
			return batchOp(key, rs, seq)
		default:
			r := draw()
			for _, a := range r.Attrs {
				dom := schema.Attr(schema.MustAttrIndex(a))
				r.Values = append(r.Values, dom.Values[int(e.Float64()*float64(dom.Size()))])
			}
			return cellOp(key, r, seq)
		}
	}
}

// ingestWorkingSet is the set of marginals quarterly-ingest keeps warm
// and reads during ingest: the serving catalog (whose head is the
// paper's Workload 1) plus Workload 2.
func ingestWorkingSet() [][]string {
	return append(hotCatalog(), eval.Workload2Attrs())
}

// ingestReaderPlan is the quarterly-ingest reader: entry i releases a
// marginal drawn uniformly from the working set, by tenant alpha under
// smooth-gamma α=0.1 ε=0.5, with explicit sequence number i.
func ingestReaderPlan(seed int64) func(i int) op {
	sets := ingestWorkingSet()
	root := dist.NewStreamFromSeed(seed).Split("quarterly-ingest")
	return func(i int) op {
		k := int(root.SplitIndex("entry", i).Float64() * float64(len(sets)))
		return releaseOp(keyAlpha, wireRelease{Attrs: sets[k], Mechanism: "smooth-gamma", Alpha: 0.1, Eps: 0.5}, int64(i))
	}
}
