package des

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPanicInProcComesOutOfRun(t *testing.T) {
	for _, where := range []string{"process", "callback"} {
		t.Run(where, func(t *testing.T) {
			e := NewEnv()
			e.Spawn("boom", func(p *Proc) {
				if where == "callback" {
					// The callback fires while this process runs the
					// loop inline on its own stack.
					e.After(us, func() { panic("boom") })
					p.Sleep(10 * us)
				}
				p.Sleep(us)
				panic("boom")
			})
			var got any
			func() {
				defer func() { got = recover() }()
				e.Run()
			}()
			if got != "boom" {
				t.Fatalf("Run raised %v, want the process's panic", got)
			}
		})
	}
}

func TestCountersPerPath(t *testing.T) {
	e := NewEnv()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(us)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Counters(); got != (Counters{Handoffs: 1, SelfWakes: 10}) {
		t.Fatalf("lone sleeper: %+v, want 1 hand-off (first activation) and 10 self-wakes", got)
	}

	// Two processes whose wakes alternate: every resumption switches.
	e = NewEnv()
	e.Spawn("a", func(p *Proc) {
		p.Sleep(us)
		p.Sleep(2 * us)
		p.Sleep(2 * us)
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(2 * us)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Counters(); got != (Counters{Handoffs: 8}) {
		t.Fatalf("alternating pair: %+v, want 8 hand-offs and no self-wakes", got)
	}
}

// churn runs a random program of timer arms, cancels and process sleeps —
// callbacks arm and cancel too, so purges also happen mid-dispatch — and
// returns the order in which events fired.
func churn(seed int64) (log []int, e *Env) {
	e = NewEnv()
	rng := rand.New(rand.NewSource(seed))
	var cancels []func()
	id := 0
	var arm func()
	arm = func() {
		id++
		n := id
		at := e.Now().Add(Duration(rng.Intn(50)) * us)
		cancels = append(cancels, e.Schedule(at, func() {
			log = append(log, n)
			if rng.Intn(4) == 0 {
				arm()
			}
		}))
	}
	step := func() {
		switch r := rng.Intn(10); {
		case r < 4:
			arm()
		case r < 9 && len(cancels) > 0:
			i := rng.Intn(len(cancels))
			cancels[i]() // may already have fired: then a no-op
			cancels[i] = cancels[len(cancels)-1]
			cancels = cancels[:len(cancels)-1]
		default:
			arm()
		}
	}
	e.Spawn("churn", func(p *Proc) {
		for i := 0; i < 20000; i++ {
			step()
			if i%7 == 0 {
				p.Sleep(Duration(rng.Intn(5)) * us)
			}
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return log, e
}

func TestPurgeKeepsPopOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		saved := purgeMin
		purgeMin = 1 << 62 // the reference never purges
		want, ref := churn(seed)
		purgeMin = saved
		got, e := churn(seed)
		if e.Counters().Purged == 0 {
			t.Fatalf("seed %d: no purge happened; the comparison proves nothing", seed)
		}
		if ref.Counters().Purged != 0 {
			t.Fatalf("seed %d: reference purged", seed)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: purging changed the firing order", seed)
		}
		if e.Events() != ref.Events() || e.Now() != ref.Now() {
			t.Fatalf("seed %d: events %d at %v, reference %d at %v", seed, e.Events(), e.Now(), ref.Events(), ref.Now())
		}
	}
}

func TestPurgeBoundsHeapUnderChurn(t *testing.T) {
	e := NewEnv()
	const live = 100
	nop := func() {}
	maxLen := 0
	e.Spawn("arm", func(p *Proc) {
		for i := 0; i < live; i++ {
			e.Schedule(Time(time.Hour), nop) // long-lived timers stay armed
		}
		for i := 0; i < 100000; i++ {
			cancel := e.Schedule(e.Now().Add(time.Second), nop)
			cancel()
			if l := e.queue.len(); l > maxLen {
				maxLen = l
			}
			if i%10 == 0 {
				p.Sleep(us)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Cancelled records never outnumber live ones by more than purgeMin.
	if bound := 2*(live+2) + purgeMin; maxLen > bound {
		t.Fatalf("queue reached %d records, bound %d", maxLen, bound)
	}
	if got := e.Counters().Purged; got < 99000 {
		t.Fatalf("purged %d of 100000 cancelled timers", got)
	}
}

// workload is a small simulation touching every kernel primitive; its
// trace, event count and counters pin the run.
func workload(seed int64) string {
	e := NewEnv()
	e.Seed(seed)
	cpu := NewResource(e, "cpu", 2)
	f := NewFIFO[int](e, "q", 4)
	wq := NewWaitQueue(e)
	var b strings.Builder
	for i := 0; i < 6; i++ {
		i := i
		e.Spawn("worker", func(p *Proc) {
			for j := 0; j < 50; j++ {
				cpu.Use(p, Duration(1+e.Rand().Intn(20))*us)
				cancel := e.After(Duration(e.Rand().Intn(30))*us, func() { wq.WakeOne() })
				if e.Rand().Intn(2) == 0 {
					cancel()
				}
				f.Put(p, i*100+j)
			}
		})
	}
	e.SpawnDaemon("waiter", func(p *Proc) {
		for {
			wq.Wait(p)
			fmt.Fprintf(&b, "w%v ", p.Now())
		}
	})
	e.Spawn("drain", func(p *Proc) {
		for k := 0; k < 300; k++ {
			fmt.Fprintf(&b, "%d@%v ", f.Get(p), p.Now())
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	fmt.Fprintf(&b, "| events %d %+v", e.Events(), e.Counters())
	return b.String()
}

// TestEnvsRunConcurrently runs independent environments on separate
// goroutines at once (run it under -race): each must reproduce its
// sequential result exactly, so Envs share no state.
func TestEnvsRunConcurrently(t *testing.T) {
	seeds := []int64{1, 2}
	want := make([]string, len(seeds))
	for i, s := range seeds {
		want[i] = workload(s)
	}
	if want[0] == want[1] {
		t.Fatal("seeds produced identical runs; the comparison proves nothing")
	}
	for round := 0; round < 3; round++ {
		got := make([]string, len(seeds))
		var wg sync.WaitGroup
		for i, s := range seeds {
			wg.Add(1)
			go func(i int, s int64) {
				defer wg.Done()
				got[i] = workload(s)
			}(i, s)
		}
		wg.Wait()
		for i := range seeds {
			if got[i] != want[i] {
				t.Fatalf("round %d seed %d: concurrent run differs from sequential run", round, seeds[i])
			}
		}
	}
}
