//go:build go1.23

package des

import (
	"fmt"
	"iter"
	"time"
)

// Proc is a simulated process. All blocking primitives must be called from
// the process's own coroutine (the function passed to Spawn); calling them
// from anywhere else corrupts the simulation and panics where detectable.
type Proc struct {
	env  *Env
	name string
	// next resumes the process's coroutine; only the Run trampoline calls
	// it. It returns the process to resume after this one blocks (nil when
	// the run is over), or ok == false once the process has returned.
	next func() (*Proc, bool)
	// yield parks the coroutine and hands that process to the trampoline.
	yield    func(*Proc) bool
	woken    bool // set by the waker for wait-queue hand-offs
	finished bool
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Spawn creates a process that runs fn, beginning at the current virtual
// time (after already-scheduled events at this time). It may be called from
// scheduler context or from another process.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon is Spawn for perpetual service loops (link pumps, kernel
// drain loops). Daemons blocked with no pending events are normal — they
// are waiting for future work — so they are excluded from Run's deadlock
// check.
func (e *Env) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Env) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	p := &Proc{env: e, name: name}
	if !daemon {
		e.nprocs++
	}
	if e.obs != nil {
		e.obs.Count("des.proc.spawned", 1)
		e.obs.Instant("sched", "des", "spawn "+name, time.Duration(e.now))
	}
	p.next, _ = iter.Pull(func(yield func(*Proc) bool) {
		p.yield = yield
		returned := false
		defer func() {
			p.finished = true
			if !daemon {
				e.nprocs--
			}
			if e.obs != nil {
				e.obs.Instant("sched", "des", "exit "+name, time.Duration(e.now))
			}
			if returned {
				return // the trampoline carries on with the loop
			}
			if r := recover(); r != nil {
				panic(r) // iter.Pull re-raises it on the Run caller
			}
			// runtime.Goexit (t.Fatal inside simulated test code).
			// Returning would make iter.Pull re-raise the Goexit on the
			// Run caller, so pass control onward and stay parked for
			// good: a finished process is never resumed.
			yield(e.dispatch())
		}()
		fn(p)
		returned = true
	})
	e.scheduleProc(e.now, p)
	return p
}

// block parks the calling process. It runs the event loop inline on the
// process's own stack until the next process event; if that event resumes
// this process it returns with no switch, otherwise it yields the process
// to resume (or nil, when the run is over) to the Run trampoline and
// returns when a later event resumes it.
func (p *Proc) block() {
	e := p.env
	next := e.dispatch()
	if next == p {
		e.inProc = true
		e.counters.SelfWakes++
		return
	}
	p.yield(next)
}

// Sleep advances the process's virtual time by d (d <= 0 yields to other
// work scheduled at the current instant).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.scheduleProc(p.env.now.Add(d), p)
	p.block()
}

// run is the trampoline behind Run, RunUntil and RunSteps. It runs on the
// caller's goroutine and is the only place a process's coroutine is
// resumed; each resumed process runs until it blocks on another process's
// event (yielding that process here), the run ends (yielding nil), or it
// returns (and the loop continues here). A panic in simulated code comes
// out of next, and so out of Run, on the caller's goroutine.
func (e *Env) run(stop func() bool) error {
	if e.inProc {
		panic("des: Run from process context")
	}
	e.halted = false
	e.stop = stop
	e.runErr = nil
	for p := e.dispatch(); p != nil; {
		e.inProc = true
		e.counters.Handoffs++
		next, ok := p.next()
		if !ok {
			next = e.dispatch()
		}
		p = next
	}
	e.stop = nil
	return e.runErr
}

// dispatch is the event loop. It fires callback events on the calling
// stack until it pops a live process event, and returns that event's
// process. It returns nil when the run is over — halted, stopped by the
// RunUntil predicate, or out of events — with the outcome in runErr.
// Exactly one goroutine runs dispatch or simulated code at any instant
// (coroutine switches order memory on both sides), so Env state needs no
// locking.
func (e *Env) dispatch() *Proc {
	e.inProc = false // whoever enters the loop left process context
	for {
		if e.halted {
			return nil
		}
		if e.queue.len() == 0 {
			if e.nprocs > 0 {
				e.runErr = fmt.Errorf("des: deadlock: %d process(es) blocked with no pending events", e.nprocs)
			}
			return nil
		}
		if e.stop() {
			return nil
		}
		ev := e.queue.pop()
		if ev.cancelled {
			e.cancelled--
			e.recycle(ev)
			continue
		}
		if ev.at < e.now {
			panic("des: time went backwards")
		}
		e.now = ev.at
		e.executed++
		if p := ev.proc; p != nil {
			e.recycle(ev)
			if p.finished {
				// Stray wakeup for a process that exited abnormally
				// (Goexit while it still had a pending event).
				continue
			}
			return p
		}
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
}
