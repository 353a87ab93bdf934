// Command perfbench is the repository benchmark. It boots the release
// stack in this process through its public entry points, drives one of
// four workloads against it over loopback with at most two
// connections, checks the workload's outputs, and prints one JSON
// result line:
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a traced run replays the workload's plan against each
// layer's public call and the result carries the per-layer metrics.
// --workload all runs the four workloads one after another. --steady N
// runs the chosen workload N times, each in a child process with its
// own seed, and reports the median and quartiles of every metric.
// Details of each run (tail percentiles and their sample counts,
// per-kind timings, spans) are written under .bench_out/.
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(*run) error{
	"serve-hot":           serveHot,
	"serve-durable-churn": serveDurableChurn,
	"quarterly-ingest":    quarterlyIngest,
	"paper-grid":          paperGrid,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"serve-hot", "serve-durable-churn", "quarterly-ingest", "paper-grid"}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload run: its settings, the requests it attempted,
// the correctness problems it found, its metrics and its details.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	detail            map[string]any
	tr                *tracer
}

// check records a correctness problem when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric. A value that is not finite (a latency tail made
// of failed requests) is reported as -1; the run is incorrect then.
func (r *run) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is not finite", name)
		v = -1
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// count adds samples to the attempted and failed totals and tallies
// their statuses by kind in the details.
func (r *run) count(ss []sample) {
	tally, _ := r.detail["statuses"].(map[string]int)
	if tally == nil {
		tally = map[string]int{}
		r.detail["statuses"] = tally
	}
	for _, s := range ss {
		r.attempted++
		if !s.ok() {
			r.failed++
		}
		tally[fmt.Sprintf("%s %d", s.Kind, s.Status)]++
	}
}

// note records a detail of the run for the details file.
func (r *run) note(key string, v any) { r.detail[key] = v }

// setLatency sets p50_ms and tail_ms from the latencies of every
// sample that passes keep, pooled over the whole phase, and notes the
// tail's percentile and sample count. Pooling averages over the host's
// slow and fast spells instead of picking one.
func (r *run) setLatency(ss []sample, keep func(sample) bool) {
	lat := latenciesMs(ss, keep)
	t := tailOf(lat)
	r.set("p50_ms", "ms", percentile(lat, 50))
	r.set("tail_ms", "ms", t.Value)
	r.note("tail", finiteTail(t))
}

// liveHeapMB is the live heap after a forced collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", ")+" or all")
	seed := fs.Int64("seed", 1, "plan seed")
	seconds := fs.Float64("seconds", 10, "measured seconds of the serving workloads")
	traceFlag := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for the end-to-end run")
	steady := fs.Int("steady", 0, "run the workload this many times with seeds seed, seed+1, ... and report median and quartiles")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			return fmt.Errorf("unknown workload %q (want one of %s or all)", n, strings.Join(workloadOrder, ", "))
		}
	}
	// The benchmark's host budget: at most two processors.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	if *steady > 0 {
		return steadiness(names, *seed, *steady, *seconds, *traceFlag == 1)
	}
	outDir := ".bench_out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := runWorkload(name, *seed, *seconds, *traceFlag == 1, outDir)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if len(names) == 1 {
			all = res
			break
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s\n", name, line)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[name+"/"+k] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !all.Correct {
		os.Exit(1)
	}
	return nil
}

// runWorkload runs one workload, writes its details file and returns
// its result.
func runWorkload(name string, seed int64, seconds float64, trace bool, outDir string) (result, error) {
	r := &run{
		seed: seed, seconds: seconds, trace: trace, outDir: outDir,
		metrics: map[string]metric{}, detail: map[string]any{},
	}
	if trace {
		r.tr = newTracer()
	}
	if err := workloads[name](r); err != nil {
		return result{}, err
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, p)
	}
	r.note("problems", r.problems)
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, map[bool]int{false: 0, true: 1}[trace]))
	if err := writeJSON(base+".json", r.detail); err != nil {
		return result{}, err
	}
	if r.tr != nil {
		if err := r.tr.writeSpans(base + "-spans.json"); err != nil {
			return result{}, err
		}
	}
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "%s %-32s %14.6g %s\n", name, k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	if r.attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	return result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
