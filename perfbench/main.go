// Command perfbench is the repository's benchmark: it runs one open-loop
// workload against the simulated sharded file service, checks every read,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
//	perfbench --workload chain-steady --seed 1 --seconds 20 --trace 0
//
// Each sub-run runs in a child process of its own, because a des.Env
// cannot be torn down: its daemon processes stay parked for the life of
// the process, and so would everything they reference.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"netmem/internal/obs"
)

// RepResult is what one sub-run (one child process) reports. Virtual holds
// the sub-run's own end-to-end figures; a pass pools Met and CPUUs.
type RepResult struct {
	Seed                                         int64
	Traced                                       bool
	Offered, Completed, Failed, Shed, Unfinished int
	Wrong                                        int                // completed, but the oracle rejected the result
	Virtual                                      map[string]float64 // virtual-time end-to-end metrics
	Met                                          int                // ops that completed within their deadline
	CPUUs                                        float64            // serving nodes' virtual CPU, µs
	Layers                                       map[string]float64 // per-layer metrics
	Fingerprint                                  string             // hash of every op's virtual timeline
	Violations                                   []string
	FailCauses                                   map[string]int // failed ops by operation and error
	Events                                       int64
	SetupS, TreeS, AttachS, ConvergeS, WallS     float64
	SysMB                                        float64
	Profile                                      []byte `json:",omitempty"`
}

// lost counts the offered ops that did not complete correctly.
func (r *RepResult) lost() int { return r.Failed + r.Shed + r.Unfinished + r.Wrong }

type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metric{
	{"iqm_ms", "ms"}, {"p99_ms", "ms"}, {"slo_attainment", "fraction"},
	{"server_cpu_us_per_op", "us"}, {"wall_s", "s"}, {"setup_s", "s"}, {"host_mem_mb", "MB"},
}

func main() {
	workload := flag.String("workload", "", "workload name: chain-steady, flash-hot or lossy-failover")
	seed := flag.Int64("seed", 1, "seed of the arrival stream, the fault streams and the simulation")
	seconds := flag.Float64("seconds", 20, "least host seconds a run lasts: sub-runs repeat until they have gone")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of a traced run instead")
	child := flag.Bool("child", false, "run one sub-run and print its RepResult (internal)")
	flag.Parse()
	w := findWorkload(*workload)
	if w == nil || *trace < 0 || *trace > 1 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: --workload must be one of %s; --trace 0 or 1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	if *child {
		res, err := runRep(w, *seed, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.Name, *seed, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := parent(ctx, w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runRep is one sub-run: set up, run the window, report.
func runRep(w *Workload, seed int64, traced bool) (*RepResult, error) {
	res := &RepResult{Seed: seed, Traced: traced, Layers: map[string]float64{}}
	r := &Rig{w: w, seed: seed}
	if traced {
		r.tr = obs.New(obs.Config{})
	}
	if err := r.Setup(res); err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	err := r.Run(res)
	if traced {
		pprof.StopCPUProfile()
		res.Profile = prof.Bytes()
	}
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.SysMB = float64(ms.Sys) / (1 << 20)
	// A short set-up is timed more than once, after the run so that the
	// extra systems cannot perturb it; setup_s is the median.
	setups := []float64{res.SetupS}
	for len(setups) < w.Setups {
		extra := &RepResult{}
		if err := (&Rig{w: w, seed: seed}).Setup(extra); err != nil {
			return nil, err
		}
		setups = append(setups, extra.SetupS)
	}
	res.SetupS = median(setups)
	return res, nil
}

// fingerprint hashes every op's virtual timeline and outcome together
// with the virtual end-to-end metrics: equal fingerprints mean the runs
// were the same simulation.
func fingerprint(ops []opRec, res *RepResult) string {
	h := fnv.New64a()
	for i := range ops {
		o := &ops[i]
		fmt.Fprintf(h, "%d %d %d %d %t %t %t %t|", o.sched, o.pick, o.svc, o.end, o.done, o.shed, o.wrong, o.err != nil)
	}
	keys := make([]string, 0, len(res.Virtual))
	for k := range res.Virtual {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v|", k, res.Virtual[k])
	}
	fmt.Fprintf(h, "violations=%d", len(res.Violations))
	return strconv.FormatUint(h.Sum64(), 16)
}

// child runs one sub-run in a fresh process, which ctx's cancellation
// kills.
func child(ctx context.Context, w *Workload, seed int64, traced bool) (*RepResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("sub-run of %s at seed %d: %w", w.Name, seed, err)
	}
	var res RepResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// subSeed is the seed of sub-run k of a run at seed.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// parent makes one untraced pass over the workload's sub-runs, each in a
// child process, and with tracing one traced pass. Then it repeats
// untraced sub-runs in order until seconds have gone and at least one
// sub-run has run twice. It checks that every repeat ran the same
// simulation as the first pass and that the benchmark's accounting holds,
// then prints. Host-time metrics are medians over every untraced sub-run.
func parent(ctx context.Context, w *Workload, seed int64, seconds float64, traced bool) error {
	t0 := time.Now()
	ref := make([]*RepResult, w.Subruns)
	var timed, withTrace, again []*RepResult
	for k := range ref {
		res, err := child(ctx, w, subSeed(seed, k), false)
		if err != nil {
			return err
		}
		ref[k] = res
	}
	timed = append(timed, ref...)
	if traced {
		for k := range ref {
			res, err := child(ctx, w, subSeed(seed, k), true)
			if err != nil {
				return err
			}
			withTrace = append(withTrace, res)
		}
		again = append(again, withTrace...)
	}
	for k := 0; len(again) == 0 || time.Since(t0).Seconds() < seconds; k++ {
		res, err := child(ctx, w, subSeed(seed, k%w.Subruns), false)
		if err != nil {
			return err
		}
		timed = append(timed, res)
		again = append(again, res)
	}
	correct := true
	for _, r := range again {
		first := ref[r.Seed-subSeed(seed, 0)]
		if r.Fingerprint != first.Fingerprint {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: determinism violated: sub-run seed %d (traced=%t) fingerprint %s, first %s\n",
				r.Seed, r.Traced, r.Fingerprint, first.Fingerprint)
		}
	}
	var attempted, lost int
	var events int64
	var refWall float64
	for _, r := range ref {
		refWall += r.WallS
		if got, want := r.Layers["oracle.reads_checked"], r.Layers["oracle.reads_completed"]; got != want {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: sub-run seed %d: oracle checked %v reads of %v completed\n", r.Seed, got, want)
		}
		if n := r.Completed + r.lost(); n != r.Offered {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: sub-run seed %d: %d ops accounted for, %d offered\n", r.Seed, n, r.Offered)
		}
		attempted += r.Offered
		lost += r.lost()
		events += r.Events
	}

	// over is the median of f over some sub-runs.
	over := func(rs []*RepResult, f func(*RepResult) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	wall := over(timed, func(r *RepResult) float64 { return r.WallS })
	values := map[string]float64{
		"wall_s":      wall,
		"setup_s":     over(timed, func(r *RepResult) float64 { return r.SetupS }),
		"host_mem_mb": over(timed, func(r *RepResult) float64 { return r.SysMB }),
	}
	// Percentiles are medians of the sub-runs' own, which one sub-run
	// with a rare backlog cannot drag; ratios pool every offered op.
	var met, completed int
	var cpu float64
	for _, r := range ref {
		met += r.Met
		completed += r.Completed
		cpu += r.CPUUs
	}
	for _, k := range []string{"p50_ms", "iqm_ms", "p99_ms"} {
		values[k] = over(ref, func(r *RepResult) float64 { return r.Virtual[k] })
	}
	values["slo_attainment"] = float64(met) / float64(attempted)
	values["failed_frac"] = float64(lost) / float64(attempted)
	values["server_cpu_us_per_op"] = cpu / float64(max(completed, 1))
	summary(w, seed, ref, values, len(timed), len(withTrace))

	metrics := map[string]any{}
	if !traced {
		for _, m := range endToEnd {
			metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
		}
	} else {
		L := map[string]float64{}
		for k := range withTrace[0].Layers {
			L[k] = over(withTrace, func(r *RepResult) float64 { return r.Layers[k] })
		}
		L["des.events_per_op"] = float64(events) / float64(attempted)
		L["des.host_ns_per_event"] = refWall * 1e9 / float64(events)
		L["setup.tree_s"] = over(timed, func(r *RepResult) float64 { return r.TreeS })
		L["setup.attach_s"] = over(timed, func(r *RepResult) float64 { return r.AttachS })
		L["setup.converge_s"] = over(timed, func(r *RepResult) float64 { return r.ConvergeS })
		L["trace.overhead_s"] = over(withTrace, func(r *RepResult) float64 { return r.WallS }) - wall
		var profs [][]byte
		for _, r := range withTrace {
			profs = append(profs, r.Profile)
		}
		shares, err := packageShares(profs)
		if err != nil {
			return err
		}
		for _, pkg := range profilePackages {
			L["host.cpu_share."+pkg] = shares[pkg]
		}
		names := make([]string, 0, len(L))
		for k := range L {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			metrics[k] = map[string]any{"value": L[k], "unit": layerUnit(k)}
			fmt.Printf("  %-34s %14.6g %s\n", k, L[k], layerUnit(k))
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    lost,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
	return nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"), strings.Contains(name, "cpu_us_per_op"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "host_ns_per_event"):
		return "ns"
	case strings.HasSuffix(name, "_frac"), strings.HasPrefix(name, "host.cpu_share."):
		return "fraction"
	case strings.HasSuffix(name, "_per_op"):
		return "1/op"
	}
	return "count"
}

// summary prints the human-readable report with every sample base.
func summary(w *Workload, seed int64, pass []*RepResult, v map[string]float64, untraced, traced int) {
	fmt.Printf("perfbench %s seed %d: a pass of %d sub-runs, each %v of arrivals; %d untraced and %d traced sub-runs run\n",
		w.Name, seed, len(pass), w.Window, untraced, traced)
	causes := map[string]int{}
	var violations []string
	for _, r := range pass {
		fmt.Printf("  sub-run seed %d: offered %d completed %d failed %d shed %d unfinished %d wrong %d;"+
			" p50_ms %.4f p99_ms %.4f (n=%d, %d beyond p99) slo %.4f\n",
			r.Seed, r.Offered, r.Completed, r.Failed, r.Shed, r.Unfinished, r.Wrong,
			r.Virtual["p50_ms"], r.Virtual["p99_ms"], r.Completed, r.Completed/100, r.Virtual["slo_attainment"])
		for c, n := range r.FailCauses {
			causes[c] += n
		}
		for _, v := range r.Violations {
			violations = append(violations, fmt.Sprintf("sub-run seed %d: %s", r.Seed, v))
		}
	}
	var n, offered, wrong int
	for _, r := range pass {
		n += r.Completed
		offered += r.Offered
		wrong += r.Wrong
	}
	fmt.Printf("  medians over %d sub-runs: p50_ms %.4f ms  iqm_ms %.4f ms  p99_ms %.4f ms  (%d completed ops in all)\n",
		len(pass), v["p50_ms"], v["iqm_ms"], v["p99_ms"], n)
	fmt.Printf("  slo_attainment %.4f  failed_frac %.4f (failed, shed, unfinished or wrong; base %d offered)"+
		"  server_cpu_us_per_op %.3f us (base %d completed)\n",
		v["slo_attainment"], v["failed_frac"], offered, v["server_cpu_us_per_op"], n)
	fmt.Printf("  wall_s %.4f s  setup_s %.4f s  host_mem_mb %.1f MB  (medians over %d untraced sub-runs)\n",
		v["wall_s"], v["setup_s"], v["host_mem_mb"], untraced)
	keys := make([]string, 0, len(causes))
	for c := range causes {
		keys = append(keys, c)
	}
	sort.Strings(keys)
	for _, c := range keys {
		fmt.Printf("  failed %d ops: %s\n", causes[c], c)
	}
	for _, v := range violations {
		fmt.Printf("  oracle violation (counted as a failed op): %s\n", v)
	}
	// The JSON line's keys are fixed, so wrong results appear there only
	// inside failed; this line keeps them apart.
	fmt.Printf("  oracle_wrong_results %d (of %d offered; also counted in failed; any rise is a correctness regression)\n",
		wrong, offered)
}
