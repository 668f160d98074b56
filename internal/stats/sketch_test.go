package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// exactQuantile is the nearest-rank q-quantile of sorted: the smallest
// sample such that at least q·n samples are <= it.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// sketchVsExact feeds the same samples to a Sketch and keeps them sorted
// for exact reference, and asserts the sketch quantiles land within relTol
// of the exact nearest-rank values.
func sketchVsExact(t *testing.T, name string, samples []int64, relTol float64) {
	t.Helper()
	var sk Sketch
	var sum float64
	for _, v := range samples {
		sk.Observe(v)
		sum += float64(v)
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := float64(sk.Quantile(q))
		want := float64(exactQuantile(sorted, q))
		if want == 0 {
			if got != 0 {
				t.Errorf("%s q=%v: got %v, want 0", name, q, got)
			}
			continue
		}
		if rel := math.Abs(got-want) / want; rel > relTol {
			t.Errorf("%s q=%v: sketch %v vs exact %v (rel err %.4f > %.4f)",
				name, q, got, want, rel, relTol)
		}
	}
	if sk.Count() != int64(len(samples)) {
		t.Errorf("%s: count %d, want %d", name, sk.Count(), len(samples))
	}
	if sk.Min() != sorted[0] || sk.Max() != sorted[len(sorted)-1] {
		t.Errorf("%s: min/max %d/%d, want %d/%d", name, sk.Min(), sk.Max(), sorted[0], sorted[len(sorted)-1])
	}
	mean := sum / float64(len(samples))
	if math.Abs(sk.Mean()-mean) > 1e-6*math.Abs(mean)+1e-9 {
		t.Errorf("%s: mean %v, want %v", name, sk.Mean(), mean)
	}
}

// TestSketchAccuracy checks quantile estimates against exact percentiles on
// known distributions: uniform, exponential, lognormal (heavy tail), and a
// bimodal mix like a cache-hit/miss latency profile.
func TestSketchAccuracy(t *testing.T) {
	const n = 200_000
	rng := rand.New(rand.NewSource(7))
	uniform := make([]int64, n)
	expo := make([]int64, n)
	logn := make([]int64, n)
	bimodal := make([]int64, n)
	for i := 0; i < n; i++ {
		uniform[i] = 1_000 + rng.Int63n(10_000_000)
		expo[i] = int64(rng.ExpFloat64() * 2_000_000)
		logn[i] = int64(math.Exp(rng.NormFloat64()*1.5+12)) + 1
		if rng.Intn(10) == 0 {
			bimodal[i] = 5_000_000 + rng.Int63n(100_000) // the miss mode
		} else {
			bimodal[i] = 50_000 + rng.Int63n(10_000) // the hit mode
		}
	}
	// The bucket scheme bounds relative error at 1/256 per value; 1% covers
	// the additional nearest-rank-vs-bucket-midpoint discretization.
	sketchVsExact(t, "uniform", uniform, 0.01)
	sketchVsExact(t, "exponential", expo, 0.01)
	sketchVsExact(t, "lognormal", logn, 0.01)
	sketchVsExact(t, "bimodal", bimodal, 0.01)
}

// TestSketchExactBelowSubBuckets verifies values under 2^7 are stored with
// bucket width 1 — small-sample quantiles are exact.
func TestSketchExactBelowSubBuckets(t *testing.T) {
	var s Sketch
	for v := int64(0); v < 128; v++ {
		s.Observe(v)
	}
	if got := s.Quantile(0.5); got != 63 { // nearest rank: the 64th smallest
		t.Errorf("median of 0..127: got %d, want 63", got)
	}
	if got := s.Quantile(1); got != 127 {
		t.Errorf("max: got %d, want 127", got)
	}
	if got := s.Quantile(0); got != 0 {
		t.Errorf("min: got %d, want 0", got)
	}
}

// TestSketchMergeEqualsUnion checks Merge produces the same quantiles as
// observing the union directly.
func TestSketchMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, union Sketch
	for i := 0; i < 50_000; i++ {
		v := rng.Int63n(1_000_000)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v * 10)
		}
		w := v
		if i%2 != 0 {
			w = v * 10
		}
		union.Observe(w)
	}
	a.Merge(&b)
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got, want := a.Quantile(q), union.Quantile(q); got != want {
			t.Errorf("q=%v: merged %d, union %d", q, got, want)
		}
	}
	if a.Count() != union.Count() || a.Sum() != union.Sum() {
		t.Errorf("merged count/sum %d/%d, want %d/%d", a.Count(), a.Sum(), union.Count(), union.Sum())
	}
}

// TestSketchDeterministic: same samples, same quantiles — byte-stable runs.
func TestSketchDeterministic(t *testing.T) {
	build := func() *Sketch {
		rng := rand.New(rand.NewSource(3))
		var s Sketch
		for i := 0; i < 10_000; i++ {
			s.Observe(rng.Int63n(1 << 40))
		}
		return &s
	}
	x, y := build(), build()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if x.Quantile(q) != y.Quantile(q) {
			t.Fatalf("q=%v differs across identical runs", q)
		}
	}
}

// TestSketchEmptyAndNegative covers the zero value and clamping.
func TestSketchEmptyAndNegative(t *testing.T) {
	var s Sketch
	if s.Quantile(0.5) != 0 || s.Count() != 0 || s.Mean() != 0 {
		t.Error("empty sketch must report zeros")
	}
	s.Observe(-5)
	if s.Min() != 0 || s.Max() != 0 || s.Count() != 1 {
		t.Errorf("negative sample must clamp to 0: min=%d max=%d n=%d", s.Min(), s.Max(), s.Count())
	}
}

// TestSketchIndexMonotone property-checks the bucketing core: indices are
// monotone in the value and representatives stay inside their bucket.
func TestSketchIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<20 + 1, 1 << 40, 1<<62 - 1} {
		idx := sketchIndex(v)
		if idx < prev {
			t.Fatalf("index not monotone at v=%d: %d < %d", v, idx, prev)
		}
		prev = idx
		mid := sketchMid(idx)
		if sketchIndex(mid) != idx {
			t.Errorf("representative %d of bucket %d (v=%d) falls outside its bucket", mid, idx, v)
		}
	}
}

// The TestHistogram cases pin the latency-histogram contract obs.Tracer
// relies on, now served by the Sketch: zero values when empty, exact
// nearest-rank quantiles below 2^7, a single sample reported exactly (the
// estimate clamps to [min, max]), and min/max tracking late samples.

func TestHistogramEmpty(t *testing.T) {
	var h Sketch
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile not zero")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Sketch
	// 1..100 in scrambled order: quantiles must not depend on insert order.
	for i := 0; i < 100; i++ {
		h.Observe(int64((i*37)%100 + 1))
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if h.P50() != 50 || h.P99() != 99 {
		t.Errorf("P50/P99 = %v/%v", h.P50(), h.P99())
	}
	if h.Min() != 1 || h.Max() != 100 || h.Count() != 100 {
		t.Errorf("min/max/count = %v/%v/%v", h.Min(), h.Max(), h.Count())
	}
	if h.Mean() != 50.5 {
		t.Errorf("mean = %v, want 50.5", h.Mean())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Sketch
	h.ObserveDuration(42 * time.Microsecond)
	want := int64(42 * time.Microsecond)
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Sketch
	h.Observe(10)
	if h.P50() != 10 {
		t.Fatal("p50 of one sample")
	}
	h.Observe(1)
	if h.Min() != 1 || h.Max() != 10 {
		t.Fatalf("min/max after late observe = %v/%v", h.Min(), h.Max())
	}
}
