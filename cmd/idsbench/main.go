// Command idsbench runs the extension experiments of DESIGN.md §4:
//
//	idsbench -sweep mobility    # X1: detection rate/latency vs speed
//	idsbench -sweep size        # X2: traffic & log overhead vs #nodes
//	idsbench -sweep ci          # X3: confidence-interval behaviour
//	idsbench -sweep ablation    # X4: Eq. 8 with vs without trust weights
//	idsbench -sweep baselines   # X5: storm/replay/drop signature coverage
//	idsbench -sweep scenarios   # X6: the scenario preset matrix + digests
//	idsbench -sweep forgers     # X8: detection vs log-forger fraction
//	idsbench -sweep recommenders # X9: recommender attacks vs the deviation test
//
// Sweeps run on the parallel experiment engine (DESIGN.md §6): -workers
// sets the pool size (default GOMAXPROCS) and -seed the root seed every
// per-trial seed is derived from, so results are identical at any worker
// count.
//
// With -serve-load the binary instead load-tests the manetd campaign
// service end to end over HTTP:
//
//	idsbench -serve-load -campaigns 1000 -tenants 8
//
// It boots an in-process manetd behind an httptest listener, fans the
// campaigns out across tenants under a per-tenant concurrency quota, and
// asserts zero quota starvation, byte-identical digests on every run,
// and no goroutine leak after drain (EXPERIMENTS.md records a run).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiment"
	"repro/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "idsbench:", err)
		os.Exit(1)
	}
}

func run() error {
	camp := cliutil.Bind(flag.CommandLine, 1, "root seed; per-trial seeds are derived from it").
		BindTrace("NDJSON run-trace directory for -sweep scenarios (one trace per preset)")
	var (
		sweep     = flag.String("sweep", "ablation", "mobility, size, ci, ablation, baselines, scenarios, forgers or recommenders")
		runs      = flag.Int("runs", 3, "trials per point (mobility sweep)")
		serveLoad = flag.Bool("serve-load", false, "load-test the manetd campaign service instead of running a sweep")
		campaigns = flag.Int("campaigns", 1000, "concurrent campaigns for -serve-load")
		tenants   = flag.Int("tenants", 8, "tenants the -serve-load campaigns spread across")
	)
	flag.Parse()
	seed := &camp.Seed

	if *serveLoad {
		return runServeLoad(*campaigns, *tenants, camp.Seed)
	}

	eng := camp.Engine()

	switch *sweep {
	case "mobility":
		pts := eng.MobilitySweep(*runs, []float64{0, 1, 2, 5, 10})
		fmt.Println("X1: detection vs mobility (random waypoint)")
		fmt.Printf("%8s %10s %12s %14s\n", "speed", "detected", "meanDelay", "falsePositives")
		for _, p := range pts {
			fmt.Printf("%6.1f/s %7d/%d %12s %11d/%d\n",
				p.Speed, p.Detected, p.Runs, p.MeanDelay, p.FalsePositives, p.Runs)
		}

	case "size":
		pts := eng.OverheadSweep([]int{8, 16, 24, 32, 48})
		fmt.Println("X2: overhead vs network size (2 simulated minutes)")
		fmt.Printf("%6s %10s %10s %12s %10s\n", "nodes", "olsrMsgs", "ctrlMsgs", "ctrl/node", "logRecs")
		for _, p := range pts {
			fmt.Printf("%6d %10d %10d %12.1f %10d\n",
				p.Nodes, p.OLSRMessages, p.CtrlMessages, p.CtrlPerNode, p.LogRecords)
		}

	case "ci":
		fmt.Println("X3: confidence interval (liar fraction 26%)")
		fmt.Printf("%6s %4s %10s %14s %12s\n", "cl", "n", "margin", "unrecognized", "meanDetect")
		pts := eng.CISweep([]float64{0.90, 0.95, 0.99}, []int{5, 15, 45, 135}, 0.26)
		for _, p := range pts {
			fmt.Printf("%6.2f %4d %10.4f %13.0f%% %12.3f\n",
				p.Level, p.N, p.Margin, 100*p.UnrecognizedFrac, p.MeanDetect)
		}

	case "ablation":
		cfg := experiment.DefaultConfig()
		cfg.Seed = *seed
		res := eng.Ablation(cfg)
		fmt.Print(res.Table.Render())
		fmt.Printf("\nfinal: trust-weighted %.3f vs uniform %.3f\n", res.FinalWeighted, res.FinalUniform)
		fmt.Println("(the trust weighting is what drives Detect toward -1 as liars lose standing)")

	case "baselines":
		res := eng.Baselines()
		fmt.Println("X5: baseline attack signature coverage")
		fmt.Printf("  broadcast storm flagged: %v\n", res.StormFlagged)
		fmt.Printf("  replay flagged:          %v\n", res.ReplayFlagged)
		fmt.Printf("  black-hole trust damage: %.3f below default\n", res.DropTrustDamage)

	case "scenarios":
		// The whole preset matrix in one parallel campaign. With the
		// default -seed the presets run under their own embedded seeds —
		// the same digests CI's golden job pins under testdata/golden/;
		// an explicit -seed reseeds every preset for a fresh campaign.
		specs := scenario.PacketPresets()
		if camp.SeedSet() {
			for i := range specs {
				specs[i].Seed = *seed
			}
		}
		// With -trace every preset also writes its NDJSON run trace into
		// the named directory. The digests are identical either way —
		// tracing is pure observation — so the traced matrix is still the
		// golden-corpus check.
		var tracePath func(int) string
		if camp.HasTrace() {
			tracePath = func(i int) string { return filepath.Join(camp.Trace, specs[i].Name+".ndjson") }
		}
		results, err := eng.Scenarios(context.Background(), specs, tracePath)
		if err != nil {
			return err
		}
		fmt.Println("X6: scenario preset matrix (internal/scenario)")
		fmt.Printf("%-18s %-16s\n", "scenario", "digest")
		for i, res := range results {
			fmt.Printf("%-18s %-16s\n", specs[i].Name, res.Digest().Hash)
		}
		if camp.HasTrace() {
			fmt.Printf("traces: %s/<scenario>.ndjson\n", camp.Trace)
		}

	case "forgers":
		// X8: the phantom spoofer shielded by k log-forging responders,
		// with and without the tamper-evident evidence plane. The plain
		// arm runs the same k responders as classic §V liars.
		pts := eng.ForgerSweep(*runs, []int{0, 1, 2, 3})
		fmt.Println("X8: detection vs log-forger fraction (16 nodes, phantom spoofer + k forging responders)")
		fmt.Printf("%8s | %-30s | %-22s\n", "", "evidence plane (forgers)", "plain plane (liars)")
		fmt.Printf("%8s | %9s %10s %9s | %9s %12s\n",
			"forgers", "spoofer", "meanDelay", "caught", "spoofer", "meanDelay")
		for _, p := range pts {
			fmt.Printf("%8d | %6d/%-2d %10s %6d/%-2d | %6d/%-2d %12s\n",
				p.Forgers,
				p.SpooferDetected, p.Trials, p.MeanDelay.Round(100*time.Millisecond),
				p.ForgersCaught, p.Forgers*p.Trials,
				p.LiarArmDetected, p.Trials, p.LiarArmMeanDelay.Round(100*time.Millisecond))
		}
		fmt.Println("(caught = forging responders convicted via tree-head gossip / reply proofs)")

	case "recommenders":
		// X9: k dishonest recommenders against the reputation plane, with
		// the deviation test on vs off. The framing family badmouths every
		// honest node; the shielding family ballot-stuffs for a phantom
		// spoofer while lying in its investigations.
		pts := eng.RecommenderSweep(*runs, []int{0, 1, 2, 3})
		fmt.Println("X9: recommender attacks vs the deviation test (16 nodes, mobile, victim-only detector)")
		fmt.Printf("%12s | %-40s | %-30s | %-25s\n", "",
			"framing rate (badmouthers)", "shielding rate (stuffers)", "spoofer conviction")
		fmt.Printf("%12s | %8s %10s %8s %9s | %8s %10s | %11s %11s\n",
			"recommenders", "filter", "no-filter", "flagged", "rejected", "filter", "no-filter", "filter", "no-filter")
		for _, p := range pts {
			fmt.Printf("%12d | %7.0f%% %9.0f%% %8d %9d | %7.0f%% %9.0f%% | %4d/%-2d %s %2d/%-2d %s\n",
				p.Recommenders,
				100*p.FilterFramedFrac, 100*p.NoFilterFramedFrac, p.FilterFlagged, p.FilterRejected,
				100*p.FilterShieldedFrac, 100*p.NoFilterShieldedFrac,
				p.FilterSpooferDetected, p.Trials, p.FilterMeanDelay.Round(100*time.Millisecond),
				p.NoFilterSpooferDetected, p.Trials, p.NoFilterMeanDelay.Round(100*time.Millisecond))
		}
		fmt.Println("(framing rate = honest nodes whose gossip-bootstrapped trust at the victim fell below half")
		fmt.Println(" the cold default; shielding rate = attackers bootstrapped above double it; flagged/rejected")
		fmt.Println(" = recommenders the victim reported dishonest / entries its deviation test discarded)")

	default:
		return fmt.Errorf("unknown -sweep %q", *sweep)
	}
	return nil
}
