// Command manetsim runs the full packet-level simulation: an OLSR network
// over a simulated radio, an optional attacker, and the victim's
// log-based intrusion detector with trusted cooperative investigations.
//
//	manetsim                                 # 16 static nodes, phantom spoof
//	manetsim -attack claim -speed 2          # claim spoof, 2 m/s waypoint
//	manetsim -attack none -duration 2m      # honest network
//	manetsim -trials 8 -workers 4           # 8 seeded trials on 4 workers
//
// Declarative scenarios (internal/scenario) name a topology, mobility
// and radio model, attack mix, and duration in one data structure:
//
//	manetsim list                            # named presets
//	manetsim -scenario grayhole              # run a preset
//	manetsim -scenario ./my-scenario.json    # run a spec file
//	manetsim -scenario wormhole -trials 8    # seeded scenario campaign
//
// Every scenario run prints its canonical metrics digest; the preset
// digests are pinned under testdata/golden/ and enforced by CI.
//
// It prints a detection report: signature alerts, investigation rounds,
// the final verdict, and traffic statistics. With -trials > 1 the
// scenario is repeated with per-trial seeds derived from -seed on the
// parallel experiment engine (DESIGN.md §6) and a summary is appended.
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
	if len(os.Args) > 1 && os.Args[1] == "list" {
		listScenarios()
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "manetsim:", err)
		os.Exit(1)
	}
}

// listScenarios prints the preset registry.
func listScenarios() {
	fmt.Println("named scenario presets (run with -scenario <name>):")
	for _, s := range scenario.Presets() {
		d := s.WithDefaults()
		kind := d.Kind
		if kind == scenario.KindRounds {
			kind += " (use trustlab)"
		}
		fmt.Printf("  %-18s %-22s %s\n", s.Name, kind, s.Description)
	}
}

func run() error {
	camp := cliutil.Bind(flag.CommandLine, 1, "random seed (root seed with -trials > 1)").
		BindScenario("named preset or spec file (see `manetsim list`)").
		BindTrace("NDJSON run-trace output: a file with -trials 1, a directory of per-trial files otherwise (scenario runs only)")
	var (
		nodes    = flag.Int("nodes", 16, "population size")
		speed    = flag.Float64("speed", 0, "max node speed in m/s (0 = static)")
		duration = flag.Duration("duration", 4*time.Minute, "simulated time")
		attackAt = flag.Duration("attack-at", time.Minute, "when the attack starts")
		attackS  = flag.String("attack", "phantom", "attack: phantom, claim, omit or none")
		liars    = flag.Int("liars", 0, "colluding liars answering investigations falsely")
		trials   = flag.Int("trials", 1, "independent seeded runs of the scenario")
	)
	flag.Parse()
	seed := &camp.Seed

	eng := camp.Engine()
	if camp.HasScenario() {
		return runScenario(eng, camp, *trials)
	}
	if camp.HasTrace() {
		return fmt.Errorf("-trace needs a declarative scenario; combine it with -scenario")
	}

	mode, at := *attackS, *attackAt
	switch mode {
	case "phantom", "claim", "omit":
	case "none":
		// No attack: a phantom spoofer whose activation lies beyond the run.
		mode, at = "phantom", *duration+time.Hour
	default:
		return fmt.Errorf("unknown -attack %q", *attackS)
	}
	spec := experiment.FullStackSpec(*seed, *nodes, *speed, *duration, at, mode)
	spec.Liars = *liars

	fmt.Printf("manetsim: %d nodes, speed %.1f m/s, attack=%s at %s, %d liars, seed %d\n",
		*nodes, *speed, *attackS, *attackAt, *liars, *seed)

	// Trials are a seeded fan on the engine (experiment.TrialSeed): trial 0
	// keeps the root seed, so a -trials 1 run is reproducible as the first
	// trial of a larger campaign.
	runs, err := eng.Scenarios(context.Background(), experiment.TrialSpecs(spec, *trials), nil)
	if err != nil {
		return err
	}
	if len(runs) == 1 {
		report(experiment.ReduceFullStack(runs[0]))
		return nil
	}
	detected, falsePos := 0, 0
	var totalDelay time.Duration
	for i, run := range runs {
		res := experiment.ReduceFullStack(run)
		fmt.Printf("trial %2d: %s\n", i, res)
		switch {
		case res.Convicted:
			detected++
			totalDelay += res.DetectionDelay
		case res.FalsePositive:
			falsePos++
		}
	}
	fmt.Println()
	fmt.Println("== campaign summary ==")
	fmt.Printf("  detected:        %d/%d\n", detected, len(runs))
	fmt.Printf("  false positives: %d/%d\n", falsePos, len(runs))
	if detected > 0 {
		fmt.Printf("  mean delay:      %s\n", totalDelay/time.Duration(detected))
	}
	return nil
}

// report prints the single-run detection report.
func report(res *experiment.FullStackResult) {
	fmt.Println()
	fmt.Println("== detection report ==")
	fmt.Printf("  convicted:        %v\n", res.Convicted)
	if res.Convicted {
		fmt.Printf("  detection delay:  %s after attack start\n", res.DetectionDelay)
	}
	fmt.Printf("  signature alerts: %d\n", res.Alerts)
	fmt.Printf("  investigations:   %d rounds\n", res.Investigations)
	fmt.Printf("  spoofer trust:    %.3f (default 0.4)\n", res.FinalSpooferTru)
	fmt.Println("== traffic ==")
	fmt.Printf("  OLSR frames:      %d\n", res.OLSRMessages)
	fmt.Printf("  control frames:   %d\n", res.CtrlMessages)
}

// runScenario resolves and executes a declarative scenario campaign.
func runScenario(eng *experiment.Runner, camp *cliutil.Campaign, trials int) error {
	spec, err := camp.ResolvePacket()
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s: %s\n", spec.Name, spec.Description)

	var results []*scenario.Result
	switch {
	case camp.HasTrace() && trials <= 1:
		// One run, one NDJSON file — the reprotrace workflow's input.
		sink, closeTrace, err := camp.OpenTrace()
		if err != nil {
			return err
		}
		res, err := scenario.RunContextTraced(context.Background(), spec, sink)
		if cerr := closeTrace(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("trace: %s (%d events)\n", camp.Trace, sink.Events())
		results = []*scenario.Result{res}
	case camp.HasTrace():
		// A trial fan writes one trace per trial into a directory; the
		// file layout is experiment.TraceFileName.
		results, err = eng.Scenarios(context.Background(), experiment.TrialSpecs(spec, trials), func(i int) string {
			return filepath.Join(camp.Trace, experiment.TraceFileName(i))
		})
		if err != nil {
			return err
		}
		fmt.Printf("traces: %s/%s .. %s\n", camp.Trace, experiment.TraceFileName(0), experiment.TraceFileName(trials-1))
	default:
		results, err = eng.Scenarios(context.Background(), experiment.TrialSpecs(spec, trials), nil)
		if err != nil {
			return err
		}
	}
	scenarioReport(results[0])
	if trials <= 1 {
		return nil
	}
	fmt.Println()
	fmt.Println("== campaign summary ==")
	for i, res := range results {
		fmt.Printf("trial %2d (seed %20d): digest %s\n", i, res.Seed, res.Digest().Hash)
	}
	return nil
}

// scenarioReport prints one scenario result with its digest.
func scenarioReport(res *scenario.Result) {
	fmt.Println()
	fmt.Println("== scenario report ==")
	fmt.Printf("  simulated:        %s (%d events)\n", res.SimTime, res.Events)
	fmt.Printf("  frames sent:      %d (%d delivered, %d lost)\n",
		res.Frames.FramesSent, res.Frames.FramesDelivered, res.Frames.FramesLost)
	fmt.Printf("  control frames:   %d\n", res.Ctrl.Sent)
	fmt.Printf("  log records:      %d\n", res.LogRecords)
	fmt.Printf("  investigations:   %d rounds\n", res.Investigations)
	if rep := res.Reputation; rep != nil {
		fmt.Printf("  reputation:       %d vectors, %d/%d entries accepted, %d recommenders flagged\n",
			rep.Vectors, rep.Accepted, rep.Accepted+rep.Rejected, rep.Flagged)
		fmt.Printf("  gossip standing:  %d/%d honest framed, %d/%d attackers shielded\n",
			rep.FramedHonest, rep.HonestCount, rep.ShieldedSuspects, rep.SuspectCount)
	}
	for _, a := range res.Alerts {
		fmt.Printf("  alert %-18s %d\n", a.Rule+":", a.Count)
	}
	for _, s := range res.Suspects {
		verdict := "not convicted"
		switch {
		case s.FalsePositive:
			verdict = fmt.Sprintf("FALSE POSITIVE at %s", s.ConvictedAt)
		case s.ConvictedAt >= 0:
			verdict = fmt.Sprintf("convicted at %s (%s after attack start)", s.ConvictedAt, s.ConvictedAt-s.AttackAt)
		}
		fmt.Printf("  suspect node %-3d %-10s trust %.3f — %s\n", s.Node, s.Kind, s.FinalTrust, verdict)
		for _, c := range s.Counters {
			fmt.Printf("    %s: %d\n", c.Name, c.Value)
		}
	}
	fmt.Printf("  digest:           %s\n", res.Digest().Hash)
}
