package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// unresolvedSpread is the quartile spread, as a share of the median,
// beyond which a metric is marked unresolved-prone: a change smaller
// than its run-to-run spread cannot be told from noise.
const unresolvedSpread = 0.1

// metricStat is one metric's steadiness over a set of runs.
type metricStat struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3-Q1)/Median, judged against Bound.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound,omitempty"`
	Status string  `json:"status"`
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json;
// without the file there are none.
func readBounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// steadiness runs each workload runs times, each in a child process of
// this binary with its own seed, and reports per metric the median and
// quartiles next to the bound BENCHMARK.json sets. A metric whose spread
// exceeds its bound is marked over-bound; one whose spread exceeds a
// tenth is marked unresolved-prone.
func steadiness(names []string, seed int64, runs int, seconds float64, trace bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	report := map[string]map[string]*metricStat{}
	for _, name := range names {
		stats := map[string]*metricStat{}
		for k := 0; k < runs; k++ {
			s := strconv.FormatInt(seed+int64(k), 10)
			cmd := exec.Command(exe, "--workload", name, "--seed", s,
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traceArg)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %s: %w", name, s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %s: result: %w", name, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %s: run was not correct", name, s)
			}
			for m, v := range res.Metrics {
				if stats[m] == nil {
					stats[m] = &metricStat{Unit: v.Unit}
				}
				stats[m].Values = append(stats[m].Values, v.Value)
			}
		}
		keys := make([]string, 0, len(stats))
		for m := range stats {
			keys = append(keys, m)
		}
		sort.Strings(keys)
		fmt.Printf("%s: %d runs, seeds %d..%d\n", name, runs, seed, seed+int64(runs)-1)
		for _, m := range keys {
			st := stats[m]
			st.Q1, st.Median, st.Q3 = quartiles(st.Values)
			st.Spread = (st.Q3 - st.Q1) / st.Median
			st.Bound = bounds[m]
			switch {
			case st.Bound > 0 && st.Spread > st.Bound:
				st.Status = "over-bound"
			case st.Spread > unresolvedSpread:
				st.Status = "unresolved-prone"
			default:
				st.Status = "steady"
			}
			fmt.Printf("  %-30s median %12.6g %-6s q1 %12.6g q3 %12.6g spread %6.3f bound %5.2f %s\n",
				m, st.Median, st.Unit, st.Q1, st.Q3, st.Spread, st.Bound, st.Status)
		}
		report[name] = stats
	}
	if err := os.MkdirAll(".bench_out", 0o755); err != nil {
		return err
	}
	name := names[0]
	if len(names) > 1 {
		name = "all"
	}
	return writeJSON(filepath.Join(".bench_out", fmt.Sprintf("steady-%s-seed%d-trace%s.json", name, seed, traceArg)), report)
}
