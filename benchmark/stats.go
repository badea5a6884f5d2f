package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of measurements of one quantity. Timings are kept in
// milliseconds.
type samples []float64

func (s *samples) add(v float64)          { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }
func ms(d time.Duration) float64          { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64          { return float64(d) / float64(time.Microsecond) }
func (s samples) sorted() []float64       { c := append([]float64(nil), s...); sort.Float64s(c); return c }
func (s samples) median() float64         { return s.quantile(0.5) }
func (s samples) p90() float64            { return s.quantile(0.9) }

// supportsP90 reports whether the 90th percentile has ten samples beyond
// it, which takes a hundred. An unsupported percentile is still printed,
// with a note, so that the metric set stays fixed.
func (s samples) supportsP90() bool { return len(s) >= 100 }
func (s samples) max() (m float64) {
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}

// quantile returns the q-quantile by linear interpolation between order
// statistics (0 for an empty set).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}
