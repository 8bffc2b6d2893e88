package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"powl/internal/obs"
)

// clock is the benchmark's time source: the obs run clock, monotonic
// nanoseconds since the process started it. Every duration and due time in
// the benchmark is a difference of its readings.
var clock = obs.NewRun(nil, nil)

func now() time.Duration { return time.Duration(clock.Now()) }

// samples is one metric's raw observations in its reporting unit.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

// median of the samples (NaN when empty).
func (s samples) median() float64 { return s.quantile(0.5) }

// quantile interpolates linearly between order statistics.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// geomean of the positive values v (NaN when empty).
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// tail returns percentile p, but only when at least ten samples lie beyond
// it: a tail read off fewer points is one or two outliers, not a tail.
func (s samples) tail(p int) (float64, error) {
	if len(s)*(100-p) < 10*100 {
		return math.NaN(), fmt.Errorf("p%d needs %d samples, have %d", p, (1000+99-p)/(100-p), len(s))
	}
	return s.quantile(float64(p) / 100), nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
