package main

import (
	"math"
	"sort"
	"time"
)

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of v that still has at least ten
// samples above it, with that percentile; ok is false below 11 samples.
func tail(v []float64) (value, pct float64, ok bool) {
	k := len(v) - 10 // 1-based rank with exactly ten samples beyond
	if k < 1 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[k-1], 100 * float64(k) / float64(len(s)), true
}

// ratio is a/b, or 0 when b is 0 (JSON has no infinities).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// perPass applies f to every pass: one sample per pass.
func perPass[P any](passes []P, f func(P) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// sumSeconds sums a duration over a pass's programs, in seconds.
func sumSeconds(d func(*exec) time.Duration) func([]exec) float64 {
	return func(pass []exec) float64 {
		var t time.Duration
		for i := range pass {
			t += d(&pass[i])
		}
		return t.Seconds()
	}
}

// sumMedians sums, over programs, the median over passes of a
// duration: robust to a slow spell that hits part of a pass.
func sumMedians(passes [][]exec, d func(*exec) time.Duration) float64 {
	var sum float64
	for i := range passes[0] {
		sum += programMedian(passes, i, d)
	}
	return sum
}

// programMedian is the median over passes of program i's duration.
func programMedian(passes [][]exec, i int, d func(*exec) time.Duration) float64 {
	return median(perPass(passes, func(p []exec) float64 { return d(&p[i]).Seconds() }))
}
