package stats

import (
	"math"
	"math/bits"
	"time"
)

// Sketch is a streaming quantile estimator over non-negative int64 samples
// (latencies in nanoseconds, sizes in bytes). It buckets each value by its
// most-significant bit plus sketchSubBits sub-bucket bits — the HDR-histogram
// scheme — so memory is a few KB regardless of sample count and the relative
// quantile error is bounded by half a sub-bucket width, under 0.4%.
//
// The bucketing is pure integer arithmetic: no logarithms, no floats on the
// observe path. Two runs (on any architecture) that observe the same samples
// report byte-identical quantiles, which is what lets CI diff SLO reports
// against committed goldens. It is the package's one quantile type: the
// open-loop recorder and every obs latency histogram use it.
type Sketch struct {
	counts   []int64
	count    int64
	sum      int64
	min, max int64
}

// sketchSubBits sets the sub-bucket resolution: 2^7 = 128 linear sub-buckets
// per power of two, capping relative error at 1/256.
const sketchSubBits = 7

// sketchIndex maps a value to its bucket. Values below 2^sketchSubBits map
// exactly (bucket width 1); above, bucket width doubles with each power of
// two while the index stays monotone in v.
func sketchIndex(v int64) int {
	if v < 1<<sketchSubBits {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - sketchSubBits
	return shift<<sketchSubBits + int(v>>uint(shift))
}

// sketchMid returns the representative (midpoint) value of bucket idx.
func sketchMid(idx int) int64 {
	if idx < 1<<sketchSubBits {
		return int64(idx)
	}
	shift := uint(idx>>sketchSubBits - 1)
	m := int64(idx) - int64(shift)<<sketchSubBits
	return m<<shift + (int64(1)<<shift)/2
}

// Observe records one sample; negative values clamp to zero.
func (s *Sketch) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	idx := sketchIndex(v)
	for idx >= len(s.counts) {
		s.counts = append(s.counts, 0)
	}
	s.counts[idx]++
	s.sum += v
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
}

// ObserveDuration records a duration sample in nanoseconds.
func (s *Sketch) ObserveDuration(d time.Duration) { s.Observe(int64(d)) }

// Count returns the number of samples.
func (s *Sketch) Count() int64 { return s.count }

// Sum returns the sum of all samples.
func (s *Sketch) Sum() int64 { return s.sum }

// Mean returns the arithmetic mean (0 with no samples).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

// Min returns the smallest sample (0 with no samples).
func (s *Sketch) Min() int64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample (0 with no samples).
func (s *Sketch) Max() int64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the nearest-rank q-quantile estimate (0 <= q <= 1): the
// representative value of the bucket holding the ceil(q·n)-th smallest
// sample, clamped to the exact observed [min, max]. Returns 0 with no
// samples.
func (s *Sketch) Quantile(q float64) int64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := int64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for idx, c := range s.counts {
		seen += c
		if seen >= rank {
			v := sketchMid(idx)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

// P50, P99 and P999 are the conventional tail-latency quantiles.
func (s *Sketch) P50() int64  { return s.Quantile(0.50) }
func (s *Sketch) P99() int64  { return s.Quantile(0.99) }
func (s *Sketch) P999() int64 { return s.Quantile(0.999) }

// Merge folds o's samples into s.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	for len(s.counts) < len(o.counts) {
		s.counts = append(s.counts, 0)
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sum += o.sum
}
