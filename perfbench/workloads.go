package main

import (
	"time"

	"netmem/internal/faults"
)

// Fixed shape of every workload.
const (
	shards            = 4
	lanes             = 8    // clerk lanes: the client machines ops execute on
	maxQueue          = 4096 // bounded dispatch FIFO in front of the lanes
	stragglerPerMille = 5
	stragglerDelay    = 2 * time.Millisecond
	// drainHorizon is how long after the arrival window an op may still
	// finish. Ops unfinished by then count as failed; the run still reports.
	drainHorizon = 5 * time.Second
)

// Workload is one open-loop input set.
type Workload struct {
	Name     string
	Rate     float64 // arrivals per second at shape factor 1
	Window   time.Duration
	Flash    bool // flash-crowd envelope instead of a steady rate
	Theta    float64
	Dirs     int
	PerDir   int
	Replicas int  // replica-chain members per shard
	Lossy    bool // mixed fault campaign, standbys, reliable transport
	// Interval is the period of the replication daemons: the chain push
	// and forwarders, or the standby mirror and the primary's heartbeat.
	Interval   time.Duration
	MicroWrite float64 // micro tenant's write share (0: default mix)
	// Subruns is how many independently seeded simulations make up one
	// pass; virtual metrics are medians over them.
	Subruns int
	// Setups is how many times a sub-run times its set-up; setup_s takes
	// the median, so a set-up of a few milliseconds is timed repeatedly.
	Setups int
}

var workloads = []*Workload{
	{Name: "chain-steady", Rate: 1500, Window: 800 * time.Millisecond, Theta: 0.9,
		Dirs: 64, PerDir: 32, Replicas: 3, Interval: 100 * time.Microsecond, Subruns: 3, Setups: 1},
	{Name: "flash-hot", Rate: 5000, Window: time.Second, Flash: true, Theta: 1.2,
		Dirs: 4, PerDir: 8, MicroWrite: 0.25, Subruns: 12, Setups: 9},
	{Name: "lossy-failover", Rate: 50, Window: 22 * time.Second, Theta: 0.9,
		Dirs: 4, PerDir: 8, Lossy: true, Interval: time.Millisecond, Subruns: 32, Setups: 5},
}

func findWorkload(name string) *Workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// mixedCampaign is the repo's "mixed" schedule, spelled out so the inputs
// stay fixed: a lossy, corrupting, duplicating, reordering fabric and the
// shard-0 primary crashing at 202 ms, rebooting cold 28 ms later.
func mixedCampaign(seed int64) faults.Campaign {
	return faults.Campaign{Name: "mixed", Seed: seed,
		Default: faults.LinkFault{Loss: 0.005, Corrupt: 0.003, Duplicate: 0.003, Reorder: 0.005},
		Crashes: []faults.Crash{{Node: 0, At: 202 * time.Millisecond, RecoverAt: 230 * time.Millisecond}},
	}
}
