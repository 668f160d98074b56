package main

import (
	"encoding/json"
	"fmt"
	"os"

	"netmem/internal/faults"
	"netmem/internal/scenario"
	"netmem/internal/stats"
	"netmem/internal/workload"
)

// The -slo family drives the open-loop workload engine: arrivals are
// scheduled on the virtual clock independent of completions, so queueing
// delay counts against latency instead of silently throttling the load
// (no coordinated omission).

// namedCampaign resolves a -chaos name for the SLO runs (empty → nil).
func namedCampaign(name string) *faults.Campaign {
	if name == "" {
		return nil
	}
	camp, ok := faults.Named(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "fsbench: unknown campaign %q (try -chaos list)\n", name)
		os.Exit(1)
	}
	return &camp
}

// runSLOSmoke measures one open-loop point and prints it as machine lines
// (prefix "slo-smoke:") for the committed golden, then applies the p99
// regression gate when one was requested.
func runSLOSmoke(shapeName string, seed int64, chaosName string, gateMs float64) {
	shape, err := workload.ParseShape(shapeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	res, err := scenario.RunOpenLoop(scenario.SmokeConfig(shape, seed, namedCampaign(chaosName)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	tot := res.Report.Total
	fmt.Printf("slo-smoke: shape=%s theta=%.2f clients=%d shards=%d replicas=%d lanes=%d seed=%d\n",
		res.Shape, res.ZipfTheta, res.Clients, res.Shards, res.Replicas, res.Lanes, seedShown(seed))
	fmt.Printf("slo-smoke: offered=%d shed=%d failed=%d stragglers=%d peak_queue=%d\n",
		res.Offered, res.Shed, tot.Failed, res.Stragglers, res.PeakQueue)
	fmt.Printf("slo-smoke: p50=%.3fms p99=%.3fms p999=%.3fms qwait_p99=%.3fms\n",
		tot.P50Ms, tot.P99Ms, tot.P999Ms, res.QWaitP99Ms)
	fmt.Printf("slo-smoke: attainment=%.4f fairness=%.4f goodput=%.1fops/s\n",
		tot.Attainment, res.Report.Fairness, tot.GoodputOps)
	for _, tr := range res.Report.Tenants {
		fmt.Printf("slo-smoke: tenant=%s deadline=%.1fms ops=%d p99=%.3fms attainment=%.4f\n",
			tr.Tenant, tr.DeadlineMs, tr.Ops, tr.P99Ms, tr.Attainment)
	}
	fmt.Printf("slo-smoke: token_hits=%d replica_reads=%d replica_fallbacks=%d mean_shard_util=%.3f\n",
		res.TokenHits, res.ReplicaReads, res.ReplicaFallbacks, res.MeanShardUtil)
	if res.Campaign != "" {
		fmt.Printf("slo-smoke: campaign=%s failed_over=%v mttr=%.2fms\n",
			res.Campaign, res.FailedOver, res.MTTRMs)
	}
	if gateMs > 0 {
		verdict := "PASS"
		if tot.P99Ms > gateMs {
			verdict = "FAIL"
		}
		fmt.Printf("slo-gate: p99 %.3fms vs threshold %.3fms %s\n", tot.P99Ms, gateMs, verdict)
		if verdict == "FAIL" {
			os.Exit(1)
		}
	}
}

// runSLO runs the full shape × skew sweep, prints the per-point table,
// writes the machine-readable BENCH_SLO.json, and renders the PASS/FAIL
// gate lines CI greps for (exit 1 on any FAIL).
func runSLO(seed int64, out, chaosName string) {
	camp := namedCampaign(chaosName)
	doc, err := scenario.RunSLOSweep(workload.SLOSweepConfig{Seed: seed, Campaign: camp})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsbench:", err)
		os.Exit(1)
	}
	fmt.Printf("SLO sweep: %d open-loop clients, %d shards + %d-replica chains, seed %d\n",
		doc.Clients, doc.Shards, doc.Replicas, doc.Seed)
	fmt.Println("(arrivals are scheduled, not gated on completions: latency includes queueing, shed load counts against attainment)")
	fmt.Println()
	t := stats.NewTable("Shape", "Theta", "Offered", "Shed", "p50", "p99", "p999", "Attain", "Fairness", "Goodput")
	for _, pt := range doc.Points {
		tot := pt.Report.Total
		t.Add(pt.Shape, fmt.Sprintf("%.1f", pt.ZipfTheta), pt.Offered, pt.Shed,
			fmt.Sprintf("%.2fms", tot.P50Ms),
			fmt.Sprintf("%.2fms", tot.P99Ms),
			fmt.Sprintf("%.2fms", tot.P999Ms),
			fmt.Sprintf("%.3f", tot.Attainment),
			fmt.Sprintf("%.3f", pt.Report.Fairness),
			fmt.Sprintf("%.0f/s", tot.GoodputOps))
	}
	fmt.Println(t)
	if out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fsbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d points)\n\n", out, len(doc.Points))
	}
	ok := true
	for _, g := range workload.GateSLO(doc) {
		verdict := "PASS"
		if !g.Pass {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("slo: %s %s (%s)\n", g.Point, verdict, g.Detail)
	}
	if !ok {
		os.Exit(1)
	}
}
