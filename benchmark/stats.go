package main

import "sort"

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(sorted(xs), 50)
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks, 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return asc[0]
	}
	if p >= 100 {
		return asc[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return asc[n-1]
	}
	return asc[lo] + frac*(asc[lo+1]-asc[lo])
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method), so
// the spreads printed here are the ones the driver computes. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quartileSpread is (q3 − q1) / median, the run-to-run spread the driver
// holds each end-to-end metric to.
func quartileSpread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// interval is a half-open stretch of time, in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the part of parent that none of children covers: the parent's
// duration minus the union of its children, each clipped to the parent.
// Children may overlap one another (two goroutines working under one round)
// without being counted twice.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	cur := interval{}
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}
