package reliable

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// accept feeds seqs from one source at one generation and fails on the
// first verdict that differs from want.
func accept(t *testing.T, d *Dedup, gen uint16, want Result, seqs ...uint32) {
	t.Helper()
	for _, s := range seqs {
		if got := d.Accept(0, gen, s); got != want {
			t.Fatalf("Accept(gen %d, seq %d) = %v, want %v", gen, s, got, want)
		}
	}
}

func span(lo, hi uint32) []uint32 {
	var s []uint32
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}

func TestSenderSequencesAndBump(t *testing.T) {
	s := NewSender()
	for want := uint32(1); want <= 3; want++ {
		if g, q := s.Next(); g != 1 || q != want {
			t.Fatalf("Next = (%d, %d), want (1, %d)", g, q, want)
		}
	}
	s.Bump()
	if g, q := s.Next(); g != 2 || q != 1 || s.Generation() != 2 {
		t.Fatalf("after Bump: Next = (%d, %d), Generation %d; want (2, 1), 2", g, q, s.Generation())
	}
}

func TestAttemptTimeoutDoublesToCap(t *testing.T) {
	c := Config{Timeout: 100 * time.Microsecond, MaxBackoff: 500 * time.Microsecond}
	want := []time.Duration{100, 200, 400, 500, 500}
	for i, w := range want {
		if got := c.AttemptTimeout(0, i); got != w*time.Microsecond {
			t.Fatalf("attempt %d: %v, want %v", i, got, w*time.Microsecond)
		}
	}
	// A base above the cap is its own cap.
	if got := c.AttemptTimeout(time.Millisecond, 3); got != time.Millisecond {
		t.Fatalf("large base: %v, want 1ms", got)
	}
}

func TestDedupWindowWrapAndSlide(t *testing.T) {
	d := NewDedup()
	// In order through several wraps of the window.
	accept(t, d, 1, Fresh, span(1, 3000)...)
	// Everything still inside the window is a duplicate, and so is
	// everything that slid out of it.
	accept(t, d, 1, Duplicate, span(3000-window+1, 3000)...)
	accept(t, d, 1, Duplicate, 1, 1000, 3000-window)

	// Gaps inside the window are filled late, once each.
	d = NewDedup()
	var seqs []uint32
	for s := uint32(1); s <= 2000; s++ {
		if s != 900 && s != 1500 && s != 1999 {
			seqs = append(seqs, s)
		}
	}
	accept(t, d, 1, Fresh, seqs...)
	accept(t, d, 1, Fresh, 1500, 1999)
	accept(t, d, 1, Duplicate, 1500, 1999)
	// 900 fell behind the window (2000-1024 = 976) before it arrived: it
	// is written off as a duplicate, the safe side of at-most-once.
	accept(t, d, 1, Duplicate, 900, 976)
	accept(t, d, 1, Duplicate, 977)

	// A gap survives the slide while it stays inside the window and is
	// written off the moment it leaves.
	d = NewDedup()
	accept(t, d, 1, Fresh, 1, 3)
	accept(t, d, 1, Fresh, span(4, window+1)...) // maxSeq = 1025: 2 is the oldest tracked
	accept(t, d, 1, Fresh, window+2)             // 2 slides out unseen
	accept(t, d, 1, Duplicate, 2)
}

func TestDedupJumpBeyondWindow(t *testing.T) {
	d := NewDedup()
	accept(t, d, 1, Fresh, 1, 2, 7)
	// A jump of more than a window: everything older is written off, and
	// a sequence number sharing a slot with an old one is still fresh.
	accept(t, d, 1, Fresh, 7+window)
	accept(t, d, 1, Duplicate, 7+window, 7, 2, 1, 6)
	accept(t, d, 1, Fresh, 8, 7+window-1)
	accept(t, d, 1, Fresh, 5000)
	accept(t, d, 1, Duplicate, 5000-window, 7+window)
	accept(t, d, 1, Fresh, 5000-window+1, 4000, 4999)
	accept(t, d, 1, Duplicate, 4000, 4999)
	// Jumps of exactly one and two windows.
	accept(t, d, 1, Fresh, 5000+window, 5000+3*window)
	accept(t, d, 1, Duplicate, 5000+2*window)
	accept(t, d, 1, Fresh, 5000+2*window+1)
}

func TestDedupWindowBoundary(t *testing.T) {
	// While maxSeq is at most window, seq 0 is still inside the window,
	// so 0 and window are tracked apart although they are window apart.
	d := NewDedup()
	accept(t, d, 1, Fresh, 0, window)
	accept(t, d, 1, Duplicate, 0, window)

	d = NewDedup()
	accept(t, d, 1, Fresh, window, 0)
	accept(t, d, 1, Duplicate, 0, window)
	accept(t, d, 1, Fresh, 1)
	// One step further and 0 and 1 leave the window together.
	accept(t, d, 1, Fresh, window+1)
	accept(t, d, 1, Duplicate, 0, 1)
	accept(t, d, 1, Fresh, 2)

	d = NewDedup()
	accept(t, d, 1, Fresh, window)
	accept(t, d, 1, Fresh, window+1) // 0 and 1 slide out unseen
	accept(t, d, 1, Duplicate, 0, 1)
	accept(t, d, 1, Fresh, 2, window-1)
}

func TestDedupGenerations(t *testing.T) {
	d := NewDedup()
	accept(t, d, 1, Fresh, span(1, 10)...)
	d.SaveReply(0, 5, []byte("r5"))
	// A new incarnation resets the window and the reply cache.
	accept(t, d, 2, Fresh, 5, 1)
	accept(t, d, 2, Duplicate, 5, 1)
	if _, ok := d.Reply(0, 5); ok {
		t.Fatal("reply cache survived a generation bump")
	}
	accept(t, d, 2, Fresh, 6)
	// The previous incarnation's frames are stale, seen or not.
	accept(t, d, 1, Stale, 5, 11, 6)
	// Sources are independent.
	if got := d.Accept(1, 1, 5); got != Fresh {
		t.Fatalf("another source's first frame: %v, want Fresh", got)
	}
	// A generation far ahead resets again, even from a high maxSeq.
	accept(t, d, 2, Fresh, 3000)
	accept(t, d, 9, Fresh, 1, 3000)
	accept(t, d, 9, Duplicate, 1, 3000)
	accept(t, d, 2, Stale, 3001)
}

func TestDedupLateFrameDiscarded(t *testing.T) {
	d := NewDedup()
	accept(t, d, 1, Fresh, 1, 2, 3)
	d.SaveReply(0, 3, []byte("r3"))
	// A late retransmission of an applied request is a duplicate: it is
	// answered from the reply cache, never re-executed.
	accept(t, d, 1, Duplicate, 3)
	if rep, ok := d.Reply(0, 3); !ok || string(rep) != "r3" {
		t.Fatalf("Reply(3) = %q, %v; want the cached r3", rep, ok)
	}
	// A late original that the window has left behind is discarded too.
	accept(t, d, 1, Fresh, 3000)
	accept(t, d, 1, Duplicate, 4, 1000)
	// After a restart, a late frame of the old incarnation is stale.
	accept(t, d, 2, Fresh, 1)
	accept(t, d, 1, Stale, 3001)
}

func TestDedupReplyCacheFIFOEviction(t *testing.T) {
	d := NewDedup()
	if _, ok := d.Reply(7, 1); ok {
		t.Fatal("reply from an unknown source")
	}
	for s := uint32(1); s <= replyCap; s++ {
		d.SaveReply(0, s, []byte(fmt.Sprint(s)))
	}
	for s := uint32(1); s <= replyCap; s++ {
		if _, ok := d.Reply(0, s); !ok {
			t.Fatalf("reply %d evicted below capacity", s)
		}
	}
	// Overwriting a held reply keeps its place in the eviction order.
	d.SaveReply(0, 1, []byte("again"))
	d.SaveReply(0, replyCap+1, []byte("new"))
	if _, ok := d.Reply(0, 1); ok {
		t.Fatal("oldest reply not evicted at capacity")
	}
	if rep, ok := d.Reply(0, 2); !ok || string(rep) != "2" {
		t.Fatalf("Reply(2) = %q, %v", rep, ok)
	}
	d.SaveReply(0, replyCap+2, nil)
	if _, ok := d.Reply(0, 2); ok {
		t.Fatal("second-oldest reply not evicted")
	}
	for s := uint32(3); s <= replyCap+2; s++ {
		if _, ok := d.Reply(0, s); !ok {
			t.Fatalf("reply %d evicted out of FIFO order", s)
		}
	}
}

// refDedup is the seen-set reference: every sequence number at or below
// maxSeq-window is a duplicate, every other one is looked up in a map.
type refDedup struct {
	gen    uint16
	maxSeq uint32
	seen   map[uint32]bool
}

func (r *refDedup) accept(gen uint16, seq uint32) Result {
	switch {
	case gen < r.gen:
		return Stale
	case gen > r.gen || r.seen == nil:
		r.gen, r.maxSeq, r.seen = gen, 0, map[uint32]bool{}
	}
	if r.maxSeq > window && seq <= r.maxSeq-window || r.seen[seq] {
		return Duplicate
	}
	r.seen[seq] = true
	if seq > r.maxSeq {
		r.maxSeq = seq
	}
	return Fresh
}

// TestDedupMatchesSeenSetReference drives random traffic — in-order runs,
// reordering, duplicates, jumps and restarts — through Dedup and the
// reference and requires identical verdicts.
func TestDedupMatchesSeenSetReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewDedup()
		ref := &refDedup{}
		gen, next := uint16(1), uint32(1)
		for i := 0; i < 20000; i++ {
			var seq uint32
			switch r := rng.Intn(100); {
			case r < 60:
				seq = next
				next++
			case r < 85: // late or duplicated, around the window edge
				back := uint32(rng.Intn(2*window + 4))
				if back > next {
					back = next
				}
				seq = next - back
			case r < 95:
				next += uint32(rng.Intn(3 * window))
				seq = next
			case r < 98:
				gen++
				next = uint32(rng.Intn(3))
				seq = next
			default:
				seq = next
				gen-- // a stale incarnation's frame
				if got, want := d.Accept(0, gen, seq), ref.accept(gen, seq); got != want {
					t.Fatalf("seed %d step %d: Accept(gen %d, seq %d) = %v, reference %v", seed, i, gen, seq, got, want)
				}
				gen++
				continue
			}
			if got, want := d.Accept(0, gen, seq), ref.accept(gen, seq); got != want {
				t.Fatalf("seed %d step %d: Accept(gen %d, seq %d) = %v, reference %v", seed, i, gen, seq, got, want)
			}
		}
	}
}

// FuzzDedupMatchesSeenSetReference decodes its input as frames — forward
// runs and jumps, late and duplicate frames around the window edge,
// restarts and stale-generation frames — and requires Dedup and the
// reference to agree on every one.
func FuzzDedupMatchesSeenSetReference(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 0, 1, 1, 4, 0, 2, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, frames []byte) {
		d, ref := NewDedup(), &refDedup{}
		gen, top := uint16(1), uint32(0)
		for ; len(frames) >= 3; frames = frames[3:] {
			delta := uint32(frames[1])<<8 | uint32(frames[2])
			g, seq := gen, top
			switch frames[0] % 4 {
			case 0:
				seq = top + delta%(3*window)
				top = max(top, seq)
			case 1:
				seq = top - min(top, delta%(2*window+2))
			case 2:
				gen++
				g, seq, top = gen, delta%3, delta%3
			case 3:
				g = gen - 1
			}
			if got, want := d.Accept(0, g, seq), ref.accept(g, seq); got != want {
				t.Fatalf("Accept(gen %d, seq %d) = %v, reference %v", g, seq, got, want)
			}
		}
	})
}

func (r Result) String() string {
	return [...]string{"Fresh", "Duplicate", "Stale"}[r]
}
