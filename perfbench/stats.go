package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (the definition numpy calls "linear"). xs need
// not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// tailCount is the number of samples strictly beyond the q-quantile,
// which the p90 report prints so a reader can see it rests on at
// least ten observations.
func tailCount(xs []float64, q float64) int {
	cut := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > cut {
			n++
		}
	}
	return n
}
