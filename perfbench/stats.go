package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder holds the percentiles the tail rule chooses from, highest
// first. A fixed ladder keeps the reported percentile the same from run
// to run whenever the sample count is.
var tailLadder = []int{99, 90, 50}

// tail is a latency tail reported by the tail rule: the percentile it
// chose, its value and the sample count it came from.
type tail struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank q-th percentile (0 < q ≤ 100) of an
// ascending slice; NaN when it is empty.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median is the nearest-rank 50th percentile of xs in any order.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// tailOf applies the tail rule to an ascending slice: the highest
// ladder percentile with at least ten samples beyond it, or the maximum
// when no ladder percentile has that many.
func tailOf(sorted []float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{Label: "none", Value: math.NaN()}
	}
	for _, q := range tailLadder {
		if n*(100-q) >= 10*100 {
			return tail{Label: fmt.Sprintf("p%d", q), Value: percentile(sorted, float64(q)), N: n}
		}
	}
	return tail{Label: "max", Value: sorted[n-1], N: n}
}

// quartiles returns the three cut points of xs into four groups by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's steadiness is judged by. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// finite returns v, or -1 when v is not finite (a statistic over failed
// requests), so that it can be written as JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// finiteTail is t with its value made finite for JSON.
func finiteTail(t tail) tail {
	t.Value = finite(t.Value)
	return t
}
