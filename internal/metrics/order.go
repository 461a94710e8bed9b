package metrics

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// nearestRank returns the 1-based nearest rank of quantile q (a fraction of
// the population) among n > 0 ordered values: ceil(q·n), with q ≤ 0 or NaN
// giving rank 1 and q ≥ 1 giving rank n. It clamps before converting,
// because Go leaves the conversion of an out-of-range float to an integer
// implementation-defined (on amd64, +Inf became the minimum rank).
func nearestRank(q float64, n int) int {
	switch {
	case !(q > 0):
		return 1
	case q >= 1:
		return n
	}
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}

// selectDepth scales selectRank's partition budget: a range of n values gets
// selectDepth·bits.Len(n) partitioning passes before the rest of it is
// sorted instead. Tests set it to 0 to force that fallback.
var selectDepth = 2

// selectSmall is the range length at or under which selectRank
// insertion-sorts instead of partitioning.
const selectSmall = 12

// selectRank rearranges a so that a[k] holds the value it would hold were a
// sorted, with no larger value before it and no smaller one after it. It is
// introselect: partitions around a median-of-three pivot (Tukey's ninther
// on long ranges) narrow the range holding k in O(len(a)) expected time,
// and short ranges are insertion-sorted. A range still open after the depth
// budget is sorted with slices.Sort, so the worst case is O(n log n).
//
// Partitions are branch-free Lomuto passes: on latencies in random order a
// branching partition mispredicts about once per value. Copies of the pivot
// go right; once a range's pivot equals the pivot it was split off above —
// the least value it can hold — a pass gathers every copy at the front
// instead, so runs of equal latencies cost one pass, not one each.
func selectRank(a []time.Duration, k int) {
	budget := selectDepth * bits.Len(uint(len(a)))
	floor := time.Duration(math.MinInt64) // no value in a is below floor
	for len(a) > selectSmall {
		if budget == 0 {
			slices.Sort(a)
			return
		}
		budget--
		m := pivotIndex(a)
		a[0], a[m] = a[m], a[0]
		p := a[0]
		if p == floor {
			// No value in a is below p, so the values below p+1 are the
			// copies of p; with p the largest Duration, that is all of a.
			if p == math.MaxInt64 {
				return
			}
			j := gatherBelow(a, p+1)
			if k < j {
				return
			}
			a, k = a[j:], k-j
			continue
		}
		m = gatherBelow(a[1:], p)
		a[0], a[m] = a[m], a[0]
		switch {
		case k == m:
			return
		case k < m:
			a = a[:m]
		default:
			a, k = a[m+1:], k-m-1
			floor = p
		}
	}
	insertionSort(a)
}

// gatherBelow moves the values of a below p to its front, keeping neither
// side's order, and returns how many there are. The count steps through d
// rather than an if around j++ so that it compiles to a flag set, not a
// branch.
func gatherBelow(a []time.Duration, p time.Duration) int {
	j := 0
	for i, x := range a {
		a[i] = a[j]
		a[j] = x
		d := 0
		if x < p {
			d = 1
		}
		j += d
	}
	return j
}

// pivotIndex returns the index of a median-of-three sample of a, taken as
// the median of three medians of three when a is long.
func pivotIndex(a []time.Duration) int {
	n := len(a)
	l, m, h := 0, n/2, n-1
	if n >= 128 {
		s := n / 8
		l = median3(a, l, l+s, l+2*s)
		m = median3(a, m-s, m, m+s)
		h = median3(a, h-2*s, h-s, h)
	}
	return median3(a, l, m, h)
}

// median3 returns whichever of i, j, k indexes the median of their values.
func median3(a []time.Duration, i, j, k int) int {
	if a[j] < a[i] {
		i, j = j, i
	}
	if a[k] >= a[j] {
		return j
	}
	if a[k] < a[i] {
		return i
	}
	return k
}

func insertionSort(a []time.Duration) {
	for i := 1; i < len(a); i++ {
		v, j := a[i], i
		for ; j > 0 && a[j-1] > v; j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}
