package main

import (
	"fmt"
	"math"
	"sort"

	"involution/internal/obs"
)

// minTail is the number of samples a percentile must have beyond it: a
// p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule. It refuses a quantile with fewer than minTail samples beyond it,
// so a p99 is never read off a few hundred jobs.
func percentile(xs []float64, q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("percentile: q=%g outside (0, 1)", q)
	}
	if beyond := float64(len(xs)) * (1 - q); beyond < minTail-1e-9 {
		need := int(math.Ceil(minTail / (1 - q)))
		return 0, fmt.Errorf("percentile: p%g of %d samples has %.1f beyond it; need at least %d samples",
			100*q, len(xs), beyond, need)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for even lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histDelta is one registry histogram's change between two snapshots:
// per-bucket (non-cumulative) counts and the sum of the new observations.
type histDelta struct {
	uppers []float64
	counts []int64
	total  int64
	sum    float64
}

// sampleIndex maps a registry snapshot by metric name.
func sampleIndex(ss []obs.Sample) map[string]obs.Sample {
	m := make(map[string]obs.Sample, len(ss))
	for _, s := range ss {
		m[s.Name] = s
	}
	return m
}

// counterDelta returns the change of a counter or gauge between snapshots.
func counterDelta(before, after map[string]obs.Sample, name string) float64 {
	return after[name].Value - before[name].Value
}

// histogramDelta returns the observations a histogram received between
// two snapshots.
func histogramDelta(before, after map[string]obs.Sample, name string) histDelta {
	a, b := after[name], before[name]
	d := histDelta{total: a.Count - b.Count, sum: a.Value - b.Value}
	var prevA, prevB int64
	for i, bk := range a.Buckets {
		cA := bk.Count - prevA
		prevA = bk.Count
		var cB int64
		if i < len(b.Buckets) {
			cB = b.Buckets[i].Count - prevB
			prevB = b.Buckets[i].Count
		}
		d.uppers = append(d.uppers, bk.Upper)
		d.counts = append(d.counts, cA-cB)
	}
	return d
}

// quantile estimates the q-quantile of the delta with the registry's own
// estimator (linear interpolation inside the bucket that crosses the rank;
// the overflow bucket reports the highest finite bound). It applies the
// same tail rule as percentile, and returns 0 for an empty delta.
func (d histDelta) quantile(q float64) (float64, error) {
	if d.total == 0 {
		return 0, nil
	}
	if beyond := float64(d.total) * (1 - q); beyond < minTail-1e-9 {
		return 0, fmt.Errorf("histogram quantile p%g of %d samples: too few beyond it", 100*q, d.total)
	}
	rank := q * float64(d.total)
	var cum int64
	lastFinite := 0.0
	for i, c := range d.counts {
		upper := d.uppers[i]
		if math.IsInf(upper, 1) {
			return lastFinite, nil
		}
		lower := lastFinite
		lastFinite = upper
		cum += c
		if float64(cum) >= rank {
			if c == 0 {
				return upper, nil
			}
			below := float64(cum - c)
			return lower + (upper-lower)*(rank-below)/float64(c), nil
		}
	}
	return lastFinite, nil
}
