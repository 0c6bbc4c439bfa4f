package obs

import (
	"math"
	"sort"
)

// Bucket is one cumulative histogram bucket: Count observations fell at or
// below Upper. A bucket slice is ascending in Upper and cumulative in
// Count, with an explicit +Inf terminal bucket — exactly the shape of a
// Prometheus histogram's `le` series.
type Bucket struct {
	Upper float64 // upper bound; math.Inf(1) for the terminal bucket
	Count float64 // cumulative count of observations <= Upper
}

// BucketQuantile estimates the q-quantile of a bucketed distribution,
// interpolating linearly within the bucket that holds the quantile rank
// (the histogram_quantile estimator). Semantics at the edges:
//
//   - empty input or zero total count → NaN (there is no distribution);
//   - q < 0 → -Inf, q > 1 → +Inf;
//   - rank lands in the +Inf bucket → the largest finite upper bound (the
//     estimate cannot exceed what the layout can resolve), or +Inf when
//     the layout has no finite bucket at all;
//   - the first bucket interpolates from 0, so estimates are
//     non-negative — the right convention for latencies and sizes.
//
// The buckets must be ascending in Upper and cumulative in Count; the
// final bucket's Count is the total observation count.
func BucketQuantile(q float64, buckets []Bucket) float64 {
	if len(buckets) == 0 {
		return math.NaN()
	}
	total := buckets[len(buckets)-1].Count
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		return math.Inf(-1)
	}
	if q > 1 {
		return math.Inf(1)
	}
	rank := q * total
	idx := sort.Search(len(buckets), func(i int) bool { return buckets[i].Count >= rank })
	if idx == len(buckets) {
		idx-- // q == 1 with trailing equal counts
	}
	if math.IsInf(buckets[idx].Upper, 1) {
		// Observations beyond the largest finite bound are unresolvable by
		// this layout: report that bound.
		if idx == 0 {
			return math.Inf(1)
		}
		return buckets[idx-1].Upper
	}
	lower, below := 0.0, 0.0
	if idx > 0 {
		lower, below = buckets[idx-1].Upper, buckets[idx-1].Count
	}
	inBucket := buckets[idx].Count - below
	if inBucket <= 0 {
		return buckets[idx].Upper
	}
	return lower + (buckets[idx].Upper-lower)*(rank-below)/inBucket
}
