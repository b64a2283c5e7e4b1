package main

import (
	"math"
	"sort"
	"time"
)

// sample is one reported number: its value, unit, and how many
// observations it summarises (printed with every result so a reader can
// judge a percentile by the samples beyond it).
type sample struct {
	Value float64
	Unit  string
	N     int
}

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the bracketing ranks of an
// ascending slice.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	rank := q * float64(len(asc)-1)
	lo := int(rank)
	if lo >= len(asc)-1 {
		return asc[len(asc)-1]
	}
	return asc[lo] + (rank-float64(lo))*(asc[lo+1]-asc[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// geomean is the geometric mean of positive values (the compilers'
// rule for averaging per-program numbers: no one program dominates).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
