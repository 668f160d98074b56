// Command simbench is the reproducible wall-clock benchmark suite for the
// simulator fast path. It runs the heaviest workloads in the repository —
// the mixed chaos campaign and the six-client scale experiment — several
// times each, takes the best wall-clock rep (least scheduler noise), and
// emits a JSON report (BENCH_PR4.json in CI).
//
// The slo-smoke leg is the replica-chain smoke point: 4 shards, each under
// a 3-member chain. Event counts are deterministic: a change in one means
// the simulated work changed. So are the kernel's scheduling-path counts
// printed beside them (des.Counters): coroutine hand-offs, self-wakes and
// purged timers.
//
// With -baseline, it compares the mixed-campaign events/sec against a
// previously committed report and exits nonzero when throughput regressed
// more than -gate percent — the CI regression gate for the fast path.
//
// Usage:
//
//	go run ./cmd/simbench -out BENCH_PR4.json
//	go run ./cmd/simbench -out BENCH_PR4.json -baseline BENCH_BASELINE.json -gate 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"netmem/internal/des"
	"netmem/internal/dfs"
	"netmem/internal/faults"
	"netmem/internal/scenario"
	"netmem/internal/workload"
)

// Result is one benchmark's best-of-reps measurement.
type Result struct {
	Name         string  `json:"name"`
	Reps         int     `json:"reps"`
	WallSeconds  float64 `json:"wall_seconds"` // best rep
	Events       uint64  `json:"events"`       // simulator events in one rep
	EventsPerSec float64 `json:"events_per_sec"`
	// Kernel scheduling-path counts of the same rep (des.Counters).
	Handoffs  uint64 `json:"handoffs"`
	SelfWakes uint64 `json:"self_wakes"`
	Purged    uint64 `json:"purged_timers"`
}

// Report is the emitted JSON document.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []Result `json:"benchmarks"`
}

// mixedChaosName is the benchmark the -baseline gate applies to.
const mixedChaosName = "mixed-chaos"

func main() {
	out := flag.String("out", "BENCH_PR4.json", "write the JSON report here ('-' for stdout only)")
	reps := flag.Int("reps", 3, "repetitions per benchmark; the best wall-clock rep is reported")
	baseline := flag.String("baseline", "", "compare against this committed report")
	gate := flag.Float64("gate", 20, "fail if mixed-campaign events/sec regresses more than this percent vs -baseline")
	flag.Parse()

	benches := []struct {
		name string
		run  func() (uint64, des.Counters, error)
	}{
		{mixedChaosName, runMixedChaos},
		{"scale6-dx", func() (uint64, des.Counters, error) { return runScale6(dfs.DX) }},
		{"scale6-hy", func() (uint64, des.Counters, error) { return runScale6(dfs.HY) }},
		{"cas-contend", runCASContend},
		{"slo-smoke", runSLOSmoke},
	}

	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, bm := range benches {
		res := Result{Name: bm.name, Reps: *reps}
		for r := 0; r < *reps; r++ {
			start := time.Now()
			events, sched, err := bm.run()
			wall := time.Since(start).Seconds()
			if err != nil {
				fmt.Fprintf(os.Stderr, "simbench: %s: %v\n", bm.name, err)
				os.Exit(1)
			}
			if r == 0 || wall < res.WallSeconds {
				res.WallSeconds = wall
				res.Events = events
				res.Handoffs, res.SelfWakes, res.Purged = sched.Handoffs, sched.SelfWakes, sched.Purged
			}
		}
		res.EventsPerSec = float64(res.Events) / res.WallSeconds
		fmt.Printf("%-12s %d reps  best %8.3fs  %9d events  %12.0f events/sec  %9d handoffs  %9d self-wakes  %8d purged\n",
			res.Name, res.Reps, res.WallSeconds, res.Events, res.EventsPerSec, res.Handoffs, res.SelfWakes, res.Purged)
		rep.Benchmarks = append(rep.Benchmarks, res)
	}

	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: marshal: %v\n", err)
		os.Exit(1)
	}
	js = append(js, '\n')
	if *out != "-" {
		if err := os.WriteFile(*out, js, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	} else {
		os.Stdout.Write(js)
	}

	if *baseline != "" {
		if err := checkGate(rep, *baseline, *gate); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: REGRESSION GATE: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("regression gate passed (within %.0f%% of %s)\n", *gate, *baseline)
	}
}

// runMixedChaos runs the full mixed campaign (loss + corruption + dup +
// reorder + crash/failover) once and returns the simulator event count
// and scheduling-path counts.
func runMixedChaos() (uint64, des.Counters, error) {
	camp, ok := faults.Named("mixed")
	if !ok {
		return 0, des.Counters{}, fmt.Errorf("mixed campaign not registered")
	}
	res, err := scenario.Run(scenario.Config{Campaign: camp, Seed: 1, Mode: dfs.DX})
	if err != nil {
		return 0, des.Counters{}, err
	}
	if res.Completed != len(res.Ops) {
		return 0, des.Counters{}, fmt.Errorf("goodput %d/%d — campaign result wrong, refusing to time it", res.Completed, len(res.Ops))
	}
	return res.Events, res.Sched, nil
}

// runScale6 runs the six-client closed-loop mix once in the given mode.
func runScale6(mode dfs.Mode) (uint64, des.Counters, error) {
	pt, err := scenario.RunClosedLoop(scenario.ClosedLoopConfig{
		Clients: 6, Mode: mode, Window: time.Second, ThinkTime: 2 * time.Millisecond})
	if err != nil {
		return 0, des.Counters{}, err
	}
	if pt.OpsDone == 0 {
		return 0, des.Counters{}, fmt.Errorf("no operations completed")
	}
	return pt.Events, pt.Sched, nil
}

// runCASContend runs the consensus CAS-contention scramble — eight clerks
// hammering one acceptor word with one-sided CAS — once. RunCASBench
// self-validates (exact final count, zero acceptor agreement CPU), so a
// wrong result fails the bench instead of being timed.
func runCASContend() (uint64, des.Counters, error) {
	res, err := scenario.RunCASBench(scenario.CASBenchConfig{
		Clerks: 8, WinsPerClerk: 200, Seed: 1})
	if err != nil {
		return 0, des.Counters{}, err
	}
	return res.Events, res.Sched, nil
}

// runSLOSmoke runs the open-loop smoke point (fsbench -slo-smoke -seed 1):
// 100k clients on 4 shards, each with a 3-member replica chain, so the
// chain push and forwarder daemons run throughout.
func runSLOSmoke() (uint64, des.Counters, error) {
	res, err := scenario.RunOpenLoop(scenario.SmokeConfig(workload.ShapeSteady, 1, nil))
	if err != nil {
		return 0, des.Counters{}, err
	}
	if res.Offered == 0 || res.Report.Total.Failed != 0 {
		return 0, des.Counters{}, fmt.Errorf("%d of %d ops failed — smoke result wrong, refusing to time it", res.Report.Total.Failed, res.Offered)
	}
	return res.Events, res.Sched, nil
}

// checkGate fails when the mixed-campaign events/sec fell more than pct
// percent below the committed baseline report.
func checkGate(cur Report, baselinePath string, pct float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	find := func(rep Report, name string) (Result, bool) {
		for _, r := range rep.Benchmarks {
			if r.Name == name {
				return r, true
			}
		}
		return Result{}, false
	}
	b, ok := find(base, mixedChaosName)
	if !ok {
		return fmt.Errorf("baseline has no %q entry", mixedChaosName)
	}
	c, ok := find(cur, mixedChaosName)
	if !ok {
		return fmt.Errorf("current run has no %q entry", mixedChaosName)
	}
	floor := b.EventsPerSec * (1 - pct/100)
	if c.EventsPerSec < floor {
		return fmt.Errorf("%s: %.0f events/sec is %.1f%% below baseline %.0f (floor %.0f)",
			mixedChaosName, c.EventsPerSec,
			(1-c.EventsPerSec/b.EventsPerSec)*100, b.EventsPerSec, floor)
	}
	return nil
}
