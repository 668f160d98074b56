package consensus

import (
	"fmt"
	"time"

	"netmem/internal/cluster"
	"netmem/internal/des"
	"netmem/internal/model"
	"netmem/internal/rmem"
)

// CAS-contention micro-benchmark: N clerks hammer one word of one
// acceptor's memory with one-sided compare-and-swap — the primitive the
// whole agreement protocol is built from, at its maximum contention. Each
// clerk must win a fixed number of increments; the final word value proves
// no win was lost or double-counted, and the acceptor's CPU ledger proves
// the machine being fought over burned nothing but kernel interface time
// (rx/reply) — no procedure, control, or client cycles.

// CASBenchConfig selects one contention run.
type CASBenchConfig struct {
	// Clerks is the number of contending machines (default 4).
	Clerks int
	// WinsPerClerk is how many CAS increments each clerk must land
	// (default 200).
	WinsPerClerk int
	// Seed seeds the environment; 0 means des.DefaultSeed.
	Seed int64
}

// CASBenchResult is one measured contention run.
type CASBenchResult struct {
	Clerks       int
	WinsPerClerk int
	Attempts     int64         // CAS operations issued
	Wins         int64         // CAS operations that took
	Window       time.Duration // simulated time for the whole scramble
	PerWin       time.Duration // mean simulated time per successful CAS
	Events       uint64        // simulator events executed
	Sched        des.Counters  // kernel scheduling-path counts
	// AgreementCPU is proc+control+client time on the acceptor node during
	// the scramble — the paper's claim is that this is exactly zero.
	AgreementCPU time.Duration
	// InterfaceCPU is rx+reply time on the acceptor node: the kernel
	// receive path one-sided operations cost, the only thing the acceptor
	// pays.
	InterfaceCPU time.Duration
}

// RunCASBench runs the scramble and self-validates: the contended word
// must end at Clerks*WinsPerClerk and the acceptor must have burned zero
// agreement CPU, or an error is returned instead of a measurement.
func RunCASBench(cfg CASBenchConfig) (*CASBenchResult, error) {
	if cfg.Clerks <= 0 {
		cfg.Clerks = 4
	}
	if cfg.WinsPerClerk <= 0 {
		cfg.WinsPerClerk = 200
	}
	env := des.NewEnv()
	if cfg.Seed != 0 {
		env.Seed(cfg.Seed)
	}
	nodes := cfg.Clerks + 1
	cl := cluster.New(env, &model.Default, nodes)
	mgrs := make([]*rmem.Manager, nodes)
	for i := range mgrs {
		mgrs[i] = rmem.NewManager(cl.Nodes[i])
	}

	res := &CASBenchResult{Clerks: cfg.Clerks, WinsPerClerk: cfg.WinsPerClerk}
	var word *rmem.Segment
	var start des.Time
	running := 0
	started := false
	var benchErr error
	env.Spawn("casbench.setup", func(p *des.Proc) {
		// The contended word: one exported segment on node 0, CAS+read
		// rights, nobody watching it.
		word = mgrs[0].Export(p, 8)
		word.SetDefaultRights(rmem.RightRead | rmem.RightCAS)
		// Every clerk imports it reliable (retransmitted CASes replay their
		// recorded outcome instead of double-applying) and brings a private
		// scratch segment for read deposits and CAS result flags.
		type clerk struct {
			imp     *rmem.Import
			scratch *rmem.Segment
		}
		clerks := make([]clerk, cfg.Clerks)
		for i := range clerks {
			m := mgrs[i+1]
			clerks[i] = clerk{
				imp:     m.Import(p, 0, word.ID(), word.Gen(), 8),
				scratch: m.Export(p, 8),
			}
			clerks[i].imp.SetReliable(true)
		}
		// Setup exports charged CPU on node 0; measure the scramble alone.
		cl.Nodes[0].ResetCPUAcct()
		start = p.Now()
		running = cfg.Clerks
		started = true
		for i := range clerks {
			c := clerks[i]
			env.Spawn(fmt.Sprintf("casbench.clerk%d", i), func(cp *des.Proc) {
				defer func() { running-- }()
				to := des.Duration(time.Second)
				wins := 0
				for wins < cfg.WinsPerClerk {
					if err := c.imp.Read(cp, 0, 4, c.scratch, 0, to); err != nil {
						benchErr = fmt.Errorf("clerk %d read: %w", i, err)
						return
					}
					old := c.scratch.ReadWord(cp, 0)
					ok, err := c.imp.CAS(cp, 0, old, old+1, c.scratch, 4, to)
					res.Attempts++
					if err != nil {
						benchErr = fmt.Errorf("clerk %d cas: %w", i, err)
						return
					}
					if ok {
						res.Wins++
						wins++
					}
				}
			})
		}
	})
	env.Spawn("casbench.wait", func(p *des.Proc) {
		for !started || running > 0 {
			p.Sleep(50 * time.Microsecond)
		}
		res.Window = time.Duration(p.Now().Sub(start))
	})
	if err := env.RunUntil(des.Time(60 * time.Second)); err != nil {
		return nil, err
	}
	if benchErr != nil {
		return nil, benchErr
	}

	// Self-validation: the word's raw bytes (no simulated access — the run
	// is over) must carry every win exactly once.
	b := word.Bytes()
	got := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	want := uint32(cfg.Clerks * cfg.WinsPerClerk)
	if got != want {
		return nil, fmt.Errorf("consensus: contended word ended at %d, want %d", got, want)
	}
	acct := cl.Nodes[0].CPUAcct
	res.AgreementCPU = time.Duration(acct[cluster.CatProc] + acct[cluster.CatControl] + acct[cluster.CatClient])
	res.InterfaceCPU = time.Duration(acct[cluster.CatRx] + acct[cluster.CatReply])
	if res.AgreementCPU != 0 {
		return nil, fmt.Errorf("consensus: acceptor burned %v agreement CPU, want 0", res.AgreementCPU)
	}
	if res.Wins > 0 {
		res.PerWin = res.Window / time.Duration(res.Wins)
	}
	res.Events = env.Events()
	res.Sched = env.Counters()
	return res, nil
}
