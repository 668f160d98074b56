package rmem

import "math/bits"

// Write tracking. The paper's interface sees every deposit it makes into a
// segment — the same path that raises notifications and enforces write
// inhibit — so a consumer that needs to know which parts of a segment
// changed can ask the memory system instead of diffing the whole segment
// against a copy. A Tracker is one consumer's per-bucket "written since
// visited" set over a region of a segment. Every store into the segment
// marks the buckets it overlaps in every tracker registered on it: remote
// WRITE deposits (byte-swapped or not), successful remote CAS, READ and CAS
// reply landings, the timed local helpers (WriteLocal, WriteWord,
// CASLocal), and MarkWritten for stores a process makes through Bytes.
// Marking is modelled as free hardware: it charges no virtual time.

// Tracker is a per-bucket written-since-visited bitmap over the region
// [base, base+stride*n) of a segment; bucket b covers
// [base+b*stride, base+(b+1)*stride). Stores outside the region are
// ignored.
type Tracker struct {
	seg             *Segment
	base, stride, n int
	words           []uint64
}

// Track registers a new tracker over n buckets of stride bytes starting at
// base. Each consumer holds its own tracker and keeps it across re-attaches;
// Untrack releases it.
func (s *Segment) Track(base, stride, n int) *Tracker {
	if base < 0 || stride <= 0 || n < 0 || base+stride*n > len(s.buf) {
		panic(ErrBounds)
	}
	t := &Tracker{seg: s, base: base, stride: stride, n: n, words: make([]uint64, (n+63)/64)}
	s.trackers = append(s.trackers, t)
	return t
}

// Untrack removes the tracker from its segment: later stores stop marking
// it. Idempotent.
func (t *Tracker) Untrack() {
	ts := t.seg.trackers
	for i, u := range ts {
		if u == t {
			t.seg.trackers = append(ts[:i:i], ts[i+1:]...)
			return
		}
	}
}

// MarkWritten records a store of count bytes at off made through Bytes, so
// every tracker on the segment sees it. A segment with no trackers pays
// only the length check.
func (s *Segment) MarkWritten(off, count int) {
	for _, t := range s.trackers {
		t.markRange(off, count)
	}
}

// markRange marks every bucket overlapping the segment bytes [off, off+count).
func (t *Tracker) markRange(off, count int) {
	lo, hi := off-t.base, off+count-t.base
	if count <= 0 || hi <= 0 || lo >= t.stride*t.n {
		return
	}
	if lo < 0 {
		lo = 0
	}
	last := (hi - 1) / t.stride
	if last >= t.n {
		last = t.n - 1
	}
	for b := lo / t.stride; b <= last; b++ {
		t.words[b>>6] |= 1 << (b & 63)
	}
}

// Mark marks bucket b, as a consumer does for a bucket it visited but could
// not finish (it must be visited again).
func (t *Tracker) Mark(b int) { t.words[b>>6] |= 1 << (b & 63) }

// MarkAll marks every bucket — a consumer whose view of the region was
// reset (a zeroed shadow copy) must visit everything once.
func (t *Tracker) MarkAll() {
	for i := range t.words {
		t.words[i] = ^uint64(0)
	}
	if r := t.n & 63; r != 0 {
		t.words[len(t.words)-1] = 1<<r - 1
	}
}

// Clear unmarks bucket b; a consumer clears a bucket as it visits it, so
// stores landing during the visit mark it again.
func (t *Tracker) Clear(b int) { t.words[b>>6] &^= 1 << (b & 63) }

// Marked reports whether bucket b is marked.
func (t *Tracker) Marked(b int) bool { return t.words[b>>6]&(1<<(b&63)) != 0 }

// Next returns the lowest marked bucket at or after b, or -1 when none is.
func (t *Tracker) Next(b int) int {
	if b < 0 {
		b = 0
	}
	if b >= t.n {
		return -1
	}
	i := b >> 6
	w := t.words[i] &^ (1<<(b&63) - 1)
	for {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
		i++
		if i == len(t.words) {
			return -1
		}
		w = t.words[i]
	}
}
