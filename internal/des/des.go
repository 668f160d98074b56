// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel provides virtual time, an event queue, coroutine-backed
// simulated processes, and FIFO resources (used to model CPUs and other
// serially shared hardware). Exactly one goroutine — the Run caller or a
// single simulated process — runs at any instant, so simulated code
// needs no locking and every run is reproducible: events that share a
// timestamp fire in the order they were scheduled.
//
// A simulated process is an ordinary function executing on its own
// coroutine (iter.Pull). It advances virtual time only through the
// blocking primitives on *Proc (Sleep, Acquire, FIFO.Get, …); pure
// computation between those calls is instantaneous in virtual time. This
// lets functional behaviour (moving real bytes, probing real hash tables)
// be written as straight-line Go while the timing model stays explicit.
//
// # Scheduling fast path
//
// Run is a trampoline on its caller's goroutine: it pops events and
// resumes the process an event names by calling that process's iter.Pull
// next function, a direct coroutine switch that bypasses the Go
// scheduler. A process that blocks keeps running the loop inline on its
// own stack, firing callback events until the next process event. If that
// event is its own, it simply returns (a self-wake costs no switch at
// all); otherwise it yields the process to resume back to the trampoline
// (two coroutine switches, no channel operation). Event records are pooled
// and carry either a bare callback or a process pointer, so the hot
// Sleep/WakeOne paths allocate nothing. Cancelled timers stay in the heap
// (cancel is O(1)) until they make up most of it; then they are purged in
// one pass. None of this changes virtual-time results: events still fire
// in (time, schedule-order) order, only the goroutine executing the loop
// differs.
//
// Env.Counters reports how often each path ran; the counts are as
// deterministic as the event count.
package des

import (
	"math/rand"
	"time"

	"netmem/internal/obs"
)

// Time is an absolute virtual timestamp measured from the start of the
// simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration re-exports time.Duration for callers that want a single import.
type Duration = time.Duration

// String formats the timestamp as a duration since the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is a scheduled occurrence: either a callback (fn) run in scheduler
// context or the resumption of a blocked process (proc). Records are pooled
// on the Env; gen disarms stale cancel handles after a record is recycled.
// Cancelled events stay in the heap and are skipped when popped, which
// makes timer cancellation O(1); Env.cancel purges them in bulk once they
// dominate the heap.
type event struct {
	at        Time
	seq       uint64 // tie-breaker: schedule order
	gen       uint64 // bumped on recycle; cancel handles check it
	fn        func()
	proc      *Proc
	cancelled bool
}

// before reports whether ev fires ahead of o: earlier time first, schedule
// order breaking ties.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventQueue is a 4-ary min-heap of pooled event records. Events are never
// removed from the middle (cancellation is lazy, purging rebuilds the
// heap), so no per-element index bookkeeping is needed, and the shallow
// 4-ary layout roughly halves the levels touched per sift compared to a
// binary heap.
type eventQueue struct {
	a []*event
}

func (q *eventQueue) len() int { return len(q.a) }

func (q *eventQueue) push(ev *event) {
	a := append(q.a, ev)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.before(a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = ev
	q.a = a
}

func (q *eventQueue) pop() *event {
	a := q.a
	n := len(a) - 1
	top := a[0]
	a[0] = a[n]
	a[n] = nil
	q.a = a[:n]
	if n > 1 {
		q.down(0)
	}
	return top
}

// down sifts a[i] towards the leaves until the heap order holds below it.
func (q *eventQueue) down(i int) {
	a := q.a
	n := len(a)
	ev := a[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if a[j].before(a[min]) {
				min = j
			}
		}
		if !a[min].before(ev) {
			break
		}
		a[i] = a[min]
		i = min
	}
	a[i] = ev
}

// heapify restores the heap order of an arbitrarily ordered slice.
func (q *eventQueue) heapify() {
	for i := (len(q.a) - 2) >> 2; i >= 0; i-- {
		q.down(i)
	}
}

// Env is a simulation environment: the event queue, the clock, and the
// bookkeeping that hands control between the event loop and at most one
// simulated process at a time. Create one with NewEnv; an Env must not be
// shared across real OS threads while Run is in progress. Separate Envs
// share nothing and may run concurrently.
type Env struct {
	now       Time
	queue     eventQueue
	seq       uint64
	pool      []*event    // free list of recycled event records
	cancelled int         // cancelled records still in the queue
	stop      func() bool // RunUntil predicate for the current run
	runErr    error       // outcome of the current run
	inProc    bool        // true while a simulated process is executing
	nprocs    int         // live (spawned, not finished) processes
	halted    bool
	executed  uint64   // events fired over the environment's lifetime
	counters  Counters // scheduling-path counts over the same lifetime

	obs *obs.Tracer // nil = observability disabled

	seed int64
	rng  *rand.Rand // lazily created; all simulation randomness draws here
}

// DefaultSeed seeds an environment's random stream when Seed is never
// called, so unseeded runs are still reproducible.
const DefaultSeed int64 = 1

// Seed fixes the environment's random stream. Call before any simulated
// activity draws randomness; reseeding mid-run restarts the stream. Because
// exactly one goroutine runs at a time and events fire in deterministic
// order, every consumer of Rand sees the same draw sequence on identical
// runs — this is what makes fault campaigns replayable.
func (e *Env) Seed(seed int64) {
	e.seed = seed
	e.rng = rand.New(rand.NewSource(seed))
}

// SeedValue returns the seed the environment's random stream started from.
func (e *Env) SeedValue() int64 {
	if e.rng == nil {
		return DefaultSeed
	}
	return e.seed
}

// Rand returns the environment-owned random stream, creating it with
// DefaultSeed on first use. Simulation code must draw randomness only from
// here (or from generators derived from SeedValue): a caller-supplied
// rand.Rand shared with non-simulated code would break determinism.
func (e *Env) Rand() *rand.Rand {
	if e.rng == nil {
		e.Seed(DefaultSeed)
	}
	return e.rng
}

// SetTracer attaches an observability tracer; nil detaches it. The DES
// kernel and every layer above emit events and metrics through it.
func (e *Env) SetTracer(t *obs.Tracer) { e.obs = t }

// Tracer returns the attached tracer (nil when observability is off). All
// tracer methods are nil-safe, but hot paths should test for nil before
// building event arguments.
func (e *Env) Tracer() *obs.Tracer { return e.obs }

// NewEnv returns an empty simulation environment at time zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Events returns the number of events fired (popped and executed, cancelled
// ones excluded) over the environment's lifetime. Benchmarks divide this by
// wall-clock time for an events/sec figure.
func (e *Env) Events() uint64 { return e.executed }

// Counters are exact counts of the scheduling paths the kernel took over an
// environment's lifetime. Like Events they depend only on the simulated
// work, never on the host, so they can be gated exactly.
type Counters struct {
	// Handoffs counts switches into a process's coroutine: its first
	// activation and every resumption other than a self-wake.
	Handoffs uint64
	// SelfWakes counts resumptions in which the blocked process popped
	// its own wake-up event and simply returned, with no switch.
	SelfWakes uint64
	// Purged counts cancelled timers dropped from the event queue by a
	// bulk purge rather than popped one by one.
	Purged uint64
}

// Counters returns the scheduling-path counts so far.
func (e *Env) Counters() Counters { return e.counters }

// alloc takes an event record from the pool, or makes one.
func (e *Env) alloc() *event {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool = e.pool[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a popped record to the pool, disarming outstanding
// cancel handles via the generation bump.
func (e *Env) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.proc = nil
	ev.cancelled = false
	e.pool = append(e.pool, ev)
}

// schedule enqueues a pooled record at the given time (clamped to now),
// stamped with the next sequence number. The caller fills in fn or proc.
func (e *Env) schedule(at Time) *event {
	if at < e.now {
		at = e.now
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
	return ev
}

// scheduleProc enqueues the resumption of p at the given time. This is the
// allocation-free path behind Sleep and the wait-queue wakes.
func (e *Env) scheduleProc(at Time, p *Proc) {
	e.schedule(at).proc = p
}

// ScheduleFunc is Schedule without a cancel handle: callers that never
// cancel (the ATM cell pumps) avoid the closure the handle costs. fn should
// be a long-lived function value (a pre-bound method), not a fresh closure,
// or the allocation simply moves to the caller.
func (e *Env) ScheduleFunc(at Time, fn func()) {
	e.schedule(at).fn = fn
}

// Schedule arranges for fn to run in scheduler context at time at (clamped
// to now if in the past). It returns a cancel function; cancelling after
// the event has fired is a no-op. fn must not block — it runs on the
// event loop. To start blocking work, Spawn a process instead.
func (e *Env) Schedule(at Time, fn func()) (cancel func()) {
	ev := e.schedule(at)
	ev.fn = fn
	gen := ev.gen
	return func() { e.cancel(ev, gen) }
}

// purgeMin is the number of cancelled records the queue tolerates before a
// purge is considered at all; below it a purge is not worth the rebuild.
var purgeMin = 32

// cancel disarms the record armed as generation gen. A record whose
// generation moved on has fired or been purged already. Once more than
// purgeMin cancelled records sit in the queue and they outnumber the live
// ones, all of them are dropped in one pass and the heap is rebuilt.
// (time, seq) keys are unique, so the live events pop in the same order
// either way.
func (e *Env) cancel(ev *event, gen uint64) {
	if ev.gen != gen || ev.cancelled {
		return
	}
	ev.cancelled = true
	e.cancelled++
	if e.cancelled > purgeMin && 2*e.cancelled > e.queue.len() {
		e.purge()
	}
}

// purge drops every cancelled record from the queue, recycling it, and
// re-heapifies what is left.
func (e *Env) purge() {
	a := e.queue.a
	live := a[:0]
	for _, ev := range a {
		if ev.cancelled {
			e.recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	clear(a[len(live):])
	e.counters.Purged += uint64(e.cancelled)
	e.cancelled = 0
	e.queue.a = live
	e.queue.heapify()
}

// After schedules fn to run d from now. See Schedule.
func (e *Env) After(d Duration, fn func()) (cancel func()) {
	return e.Schedule(e.now.Add(d), fn)
}

// Run executes events until the queue is empty or Halt is called. Processes
// blocked on never-signalled conditions are reported as a deadlock error if
// any remain when the queue drains.
func (e *Env) Run() error {
	return e.run(neverStop)
}

var neverStop = func() bool { return false }

// RunUntil executes events with timestamps <= deadline, leaving the rest of
// the simulation intact so it can be resumed with another Run call. The
// clock is left at min(deadline, time of last executed event) — it does not
// jump to the deadline if the queue drains first.
func (e *Env) RunUntil(deadline Time) error {
	return e.run(func() bool {
		return e.queue.len() > 0 && e.queue.a[0].at > deadline
	})
}

// RunSteps advances the simulation in step-sized slices until stop reports
// true or the slice ending at horizon has run. Perpetual daemons never let
// the queue drain, so a caller that only needs the simulation up to some
// condition polls it between slices; the quantized polling keeps the stop
// point — and with it the executed-event count — deterministic. The clock
// stays at the last executed event (see RunUntil), so the loop ends on the
// horizon slice rather than waiting for the clock to reach the horizon.
func (e *Env) RunSteps(step Duration, horizon Time, stop func() bool) error {
	for !stop() && e.now < horizon {
		next := e.now.Add(step)
		last := next >= horizon
		if last {
			next = horizon
		}
		if err := e.RunUntil(next); err != nil || last {
			return err
		}
	}
	return nil
}

// Halt stops the simulation after the current event completes. Safe to call
// from simulated code.
func (e *Env) Halt() { e.halted = true }
