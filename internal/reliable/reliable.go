// Package reliable provides the sequencing, deduplication, and retry
// policy for at-most-once meta-instruction delivery (§3.7). The paper's
// cluster treats cell loss as "an extremely rare occurrence" and simply
// abandons a timed-out READ; this layer is the opt-in alternative for
// links that do lose cells: every reliable frame carries a (generation,
// sequence) pair, the sender retransmits on timeout with capped
// exponential backoff, and the receiver's dedup window ensures a
// retransmitted request is applied at most once — duplicates are answered
// from a bounded reply cache instead of re-executed.
//
// The package is pure policy and bookkeeping: it moves no bytes and knows
// nothing about the simulation. rmem owns the wire format and the retry
// loops; dfs/nameserver/hybrid opt in per import.
package reliable

import "time"

// Config is the retry policy for one manager (shared by its reliable
// imports).
type Config struct {
	// Timeout is the base per-attempt reply/ack timeout for a single-cell
	// operation; callers scale it by expected transfer time for larger
	// frames.
	Timeout time.Duration
	// MaxBackoff caps the exponentially growing per-attempt timeout.
	MaxBackoff time.Duration
	// MaxRetries is the number of retransmissions after the first attempt
	// before the operation fails.
	MaxRetries int
}

// AttemptTimeout returns the reply timeout for the attempt'th transmission
// (0-based): base doubling per attempt, capped at MaxBackoff (or at base
// itself when a large transfer's base already exceeds the cap).
func (c Config) AttemptTimeout(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = c.Timeout
	}
	cap := c.MaxBackoff
	if cap < base {
		cap = base
	}
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= cap {
			return cap
		}
	}
	return d
}

// Sender allocates the (generation, sequence) identity for outgoing
// reliable frames. Sequences are unique per sender within a generation
// (one counter across all destinations — receivers track a seen-set, not
// contiguity); the generation is the sender's incarnation number, bumped
// on restart so a rebooted node's frames are never mistaken for its
// predecessor's retransmissions.
type Sender struct {
	gen  uint16
	next uint32
}

// NewSender starts a sender at generation 1.
func NewSender() *Sender { return &Sender{gen: 1} }

// Next allocates the identity for a new frame.
func (s *Sender) Next() (gen uint16, seq uint32) {
	s.next++
	return s.gen, s.next
}

// Generation returns the current incarnation.
func (s *Sender) Generation() uint16 { return s.gen }

// Bump starts a new incarnation (after a crash/restart). The sequence
// space restarts too: receivers reset their windows on seeing the higher
// generation.
func (s *Sender) Bump() {
	s.gen++
	s.next = 0
}

// Result classifies an incoming reliable frame.
type Result int

const (
	// Fresh frames are applied.
	Fresh Result = iota
	// Duplicate frames were already applied: re-ack or replay the cached
	// reply, but do not re-execute.
	Duplicate
	// Stale frames carry a previous incarnation's generation: drop them.
	Stale
)

// window is how far behind the highest sequence seen from a source a frame
// may lag before it is written off as a duplicate without consulting the
// seen-set. It only needs to exceed the sender's maximum in-flight
// operations (one per process, a handful per node) times the retry limit.
const window = 1024

// replyCap bounds the per-source reply cache (FIFO eviction). In-flight
// request identities are bounded well below this, so a cached reply
// outlives every retransmission of its request.
const replyCap = 128

type srcState struct {
	gen    uint16
	maxSeq uint32
	// seen is a ring of window bits: bit seq%window is set once seq is
	// accepted, and cleared when maxSeq reaches seq+window, the newer
	// sequence number that takes the slot over. Every tracked sequence
	// number but 0 has a slot of its own; see zero.
	seen [window / 64]uint64
	// zero records seq 0, which is still inside the window while maxSeq
	// <= window and would share slot 0 with seq window.
	zero    bool
	replies map[uint32][]byte
	order   []uint32 // reply insertion order, for eviction
}

// slot locates seq's bit in the seen ring.
func slot(seq uint32) (word int, bit uint64) {
	return int(seq / 64 % (window / 64)), 1 << (seq % 64)
}

func (st *srcState) has(seq uint32) bool {
	w, b := slot(seq)
	return st.seen[w]&b != 0
}

func (st *srcState) set(seq uint32) {
	w, b := slot(seq)
	st.seen[w] |= b
}

// slide moves the window's top to seq > maxSeq, freeing the slots of the
// sequence numbers that fall out of it.
func (st *srcState) slide(seq uint32) {
	if seq-st.maxSeq >= window {
		st.seen = [window / 64]uint64{}
	} else {
		for s := st.maxSeq + 1; s != seq+1; s++ {
			w, b := slot(s)
			st.seen[w] &^= b
		}
	}
	st.maxSeq = seq
}

// Dedup is the receiver half: per-source (generation, sequence) windows
// and the reply cache that makes retransmitted READ/CAS requests replay
// their original answer.
type Dedup struct {
	srcs map[int]*srcState
}

// NewDedup returns an empty dedup table.
func NewDedup() *Dedup { return &Dedup{srcs: make(map[int]*srcState)} }

func (d *Dedup) src(src int) *srcState {
	st, ok := d.srcs[src]
	if !ok {
		st = &srcState{replies: make(map[uint32][]byte)}
		d.srcs[src] = st
	}
	return st
}

// Accept classifies frame (gen, seq) from src and, for Fresh frames,
// records it as seen. A generation above the current one resets the
// source's state (new sender incarnation); one below is Stale.
func (d *Dedup) Accept(src int, gen uint16, seq uint32) Result {
	st := d.src(src)
	switch {
	case gen < st.gen:
		return Stale
	case gen > st.gen:
		st.gen = gen
		st.maxSeq = 0
		st.seen = [window / 64]uint64{}
		st.zero = false
		st.replies = make(map[uint32][]byte)
		st.order = st.order[:0]
	}
	if st.maxSeq > window && seq <= st.maxSeq-window {
		// Too far behind to still be tracked: anything this old was either
		// seen or permanently lost; treating it as a duplicate is the safe
		// side of at-most-once.
		return Duplicate
	}
	switch {
	case seq == 0: // only reachable while maxSeq <= window
		if st.zero {
			return Duplicate
		}
		st.zero = true
		return Fresh
	case seq > st.maxSeq:
		st.slide(seq)
	case st.has(seq):
		return Duplicate
	}
	st.set(seq)
	return Fresh
}

// SaveReply caches the encoded reply frame for (src, seq), so a duplicate
// request replays it instead of re-executing.
func (d *Dedup) SaveReply(src int, seq uint32, frame []byte) {
	st := d.src(src)
	if _, exists := st.replies[seq]; !exists {
		st.order = append(st.order, seq)
		if len(st.order) > replyCap {
			delete(st.replies, st.order[0])
			st.order = st.order[1:]
		}
	}
	st.replies[seq] = frame
}

// Reply returns the cached reply for (src, seq), if still held.
func (d *Dedup) Reply(src int, seq uint32) ([]byte, bool) {
	st, ok := d.srcs[src]
	if !ok {
		return nil, false
	}
	f, ok := st.replies[seq]
	return f, ok
}
