package stats

import (
	"testing"
	"time"
)

func TestTimelineBuckets(t *testing.T) {
	tl := Timeline{Bucket: time.Millisecond}
	// 0.5ms busy in bucket 0, then a 2ms span covering buckets 2,3.
	tl.Add(0, 500*time.Microsecond)
	tl.Add(2*time.Millisecond, 2*time.Millisecond)
	if got := tl.Utilization(0); got != 0.5 {
		t.Errorf("bucket 0 util = %v, want 0.5", got)
	}
	if got := tl.Utilization(1); got != 0 {
		t.Errorf("bucket 1 util = %v, want 0", got)
	}
	if tl.Utilization(2) != 1 || tl.Utilization(3) != 1 {
		t.Errorf("buckets 2,3 = %v,%v, want 1,1", tl.Utilization(2), tl.Utilization(3))
	}
	// A span straddling a boundary splits.
	tl2 := Timeline{Bucket: time.Millisecond}
	tl2.Add(750*time.Microsecond, 500*time.Microsecond)
	if tl2.Utilization(0) != 0.25 || tl2.Utilization(1) != 0.25 {
		t.Errorf("straddle = %v,%v, want 0.25,0.25", tl2.Utilization(0), tl2.Utilization(1))
	}
	if out := tl.Render(10); out == "" {
		t.Error("render empty")
	}
}
