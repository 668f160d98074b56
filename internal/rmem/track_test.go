package rmem

import (
	"reflect"
	"testing"
	"time"

	"netmem/internal/des"
)

// marked lists t's marked buckets in ascending order, clearing them.
func marked(t *Tracker) []int {
	var out []int
	for b := t.Next(0); b >= 0; b = t.Next(b + 1) {
		t.Clear(b)
		out = append(out, b)
	}
	return out
}

func wantMarked(t *testing.T, what string, trk *Tracker, want ...int) {
	t.Helper()
	if got := marked(trk); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: marked %v, want %v", what, got, want)
	}
}

// TestTrackerBitmap covers the bitmap itself: Next across word
// boundaries, MarkAll's tail, Clear, and Untrack.
func TestTrackerBitmap(t *testing.T) {
	env, _, m0, _ := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m0.Export(p, 130*8)
		trk := seg.Track(0, 8, 130)
		if trk.Next(0) != -1 {
			t.Fatalf("fresh tracker: Next=%d", trk.Next(0))
		}
		for _, b := range []int{129, 0, 64, 63} {
			trk.Mark(b)
		}
		if !trk.Marked(64) || trk.Marked(65) {
			t.Error("Marked disagrees with Mark")
		}
		if got := trk.Next(1); got != 63 {
			t.Errorf("Next(1) = %d, want 63", got)
		}
		wantMarked(t, "marks", trk, 0, 63, 64, 129)
		trk.MarkAll()
		if got := len(marked(trk)); got != 130 {
			t.Errorf("MarkAll marked %d buckets, want 130", got)
		}
		if trk.Next(130) != -1 || trk.Next(-5) != -1 {
			t.Error("Next out of range must report none")
		}
		trk.Untrack()
		trk.Untrack()
		seg.MarkWritten(0, len(seg.Bytes()))
		wantMarked(t, "after Untrack", trk)
	})
}

// TestTrackerRemoteWrites checks the deposit paths: a WRITE straddling two
// buckets marks both, header writes outside the region are ignored, a
// byte-swapped WRITE marks, and every tracker on the segment sees a store.
func TestTrackerRemoteWrites(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		const hdr, stride = 40, 100
		seg := m1.Export(p, hdr+4*stride)
		seg.SetDefaultRights(RightsAll)
		a := seg.Track(hdr, stride, 4)
		b := seg.Track(hdr, stride, 4)
		imp := m0.Import(p, 1, seg.ID(), seg.Gen(), seg.Size())
		settle := func() { p.Sleep(time.Millisecond) }

		if err := imp.Write(p, hdr+stride-4, []byte("straddles"), false); err != nil {
			t.Fatal(err)
		}
		settle()
		wantMarked(t, "straddling write", a, 0, 1)
		wantMarked(t, "second tracker", b, 0, 1)

		if err := imp.WriteBlock(p, 0, make([]byte, hdr), false); err != nil {
			t.Fatal(err)
		}
		settle()
		wantMarked(t, "header write", a)
		marked(b)

		// A write ending exactly at a bucket boundary marks only the
		// bucket it covers; the last byte of the region marks the last.
		if err := imp.Write(p, hdr+2*stride, make([]byte, stride/4), false); err != nil {
			t.Fatal(err)
		}
		if err := imp.Write(p, hdr+4*stride-1, []byte{1}, false); err != nil {
			t.Fatal(err)
		}
		settle()
		wantMarked(t, "boundary writes", a, 2, 3)
		marked(b)

		imp.SetByteOrderSwap(true)
		if err := imp.Write(p, hdr+stride+8, []byte{1, 2, 3, 4}, false); err != nil {
			t.Fatal(err)
		}
		settle()
		wantMarked(t, "byte-swapped write", a, 1)
		if got := seg.Bytes()[hdr+stride+8 : hdr+stride+12]; got[0] != 4 || got[3] != 1 {
			t.Errorf("swapped deposit = %v", got)
		}
	})
	if len(m0.WriteFaults) != 0 {
		t.Fatalf("write faults: %v", m0.WriteFaults)
	}
}

// TestTrackerCASAndReplies checks that a failed CAS marks nothing, a
// successful one marks its word, and READ and CAS replies mark the local
// segment they land in.
func TestTrackerCASAndReplies(t *testing.T) {
	env, _, m0, m1 := testPair(t)
	run(t, env, func(p *des.Proc) {
		remote := m1.Export(p, 64)
		remote.SetDefaultRights(RightsAll)
		rtrk := remote.Track(0, 16, 4)
		local := m0.Export(p, 64)
		ltrk := local.Track(0, 16, 4)
		imp := m0.Import(p, 1, remote.ID(), remote.Gen(), remote.Size())

		ok, err := imp.CAS(p, 32, 7, 9, local, 0, time.Second)
		if err != nil || ok {
			t.Fatalf("CAS on a zero word = %v, %v; want a failed swap", ok, err)
		}
		wantMarked(t, "failed CAS (remote word)", rtrk)
		wantMarked(t, "failed CAS result landing", ltrk, 0)

		ok, err = imp.CAS(p, 32, 0, 9, local, 20, time.Second)
		if err != nil || !ok {
			t.Fatalf("CAS = %v, %v; want success", ok, err)
		}
		wantMarked(t, "successful CAS", rtrk, 2)
		wantMarked(t, "CAS result landing", ltrk, 1)

		if err := imp.Read(p, 0, 40, local, 24, time.Second); err != nil {
			t.Fatal(err)
		}
		wantMarked(t, "read reply landing", ltrk, 1, 2, 3)
		imp.SetByteOrderSwap(true)
		if err := imp.Read(p, 0, 8, local, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		wantMarked(t, "byte-swapped read reply", ltrk, 0)
		wantMarked(t, "reads leave the source unmarked", rtrk)
	})
}

// TestTrackerLocalStores checks the timed local store helpers and
// MarkWritten; a failed local CAS marks nothing.
func TestTrackerLocalStores(t *testing.T) {
	env, _, m0, _ := testPair(t)
	run(t, env, func(p *des.Proc) {
		seg := m0.Export(p, 64)
		trk := seg.Track(16, 16, 3)
		seg.WriteLocal(p, 0, make([]byte, 20))
		wantMarked(t, "WriteLocal", trk, 0)
		seg.WriteWord(p, 60, 1)
		wantMarked(t, "WriteWord", trk, 2)
		if seg.CASLocal(p, 40, 5, 6) {
			t.Fatal("CASLocal on a zero word succeeded")
		}
		wantMarked(t, "failed CASLocal", trk)
		if !seg.CASLocal(p, 40, 0, 6) {
			t.Fatal("CASLocal failed")
		}
		wantMarked(t, "CASLocal", trk, 1)
		seg.MarkWritten(8, 0)
		seg.MarkWritten(0, 16)
		wantMarked(t, "empty and out-of-region MarkWritten", trk)
		_ = seg.ReadLocal(p, 16, 48)
		_ = seg.ReadWord(p, 16)
		wantMarked(t, "local reads", trk)
	})
}
