package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// simWorkload is a simulator workload: a fixed preset list, run
// serially in a closed loop.
type simWorkload struct {
	presets []string
	// trials is how many trial seeds a run at a held-out seed cycles
	// through, one per pass: enough that a run averages over the
	// seed-to-seed cost differences (mobility makes linkspoof-mobile's
	// cost vary by a third between seeds), few enough that every trial
	// repeats within a run and its digest is checked against itself.
	trials int
}

// simWorkloads are the simulator workloads. The preset lists are fixed
// here, not derived from the registry, so a new preset never changes
// what a workload measures.
var simWorkloads = map[string]simWorkload{
	// Neither the evidence nor the reputation plane: OLSR upkeep dominates.
	"topology": {presets: []string{"baseline", "linkspoof", "linkspoof-mobile", "colluding",
		"wormhole", "blackhole", "grayhole", "storm", "baselines-x5"}, trials: 8},
	// The evidence or the reputation plane: the control path dominates.
	"gossip": {presets: []string{"logforger", "logforger-colluding", "badmouth", "ballotstuff",
		"recommend-onoff"}, trials: 2},
	// 200 nodes on the grid medium: the only workload where heap size matters.
	"scale200": {presets: []string{"linkspoof-200"}, trials: 1},
}

// simRun is one seeded run of a preset.
type simRun struct {
	seed int64
	// expect is the digest in golden-file form the run must reproduce
	// (seed 0), and expectHash the digest hash recorded for it in
	// heldoutFile. With neither, the first run fills expect from its own
	// digest (self is then set) and every later run with this seed must
	// match that one.
	expect     string
	expectHash string
	self       bool
	done       int // how many times the run has been checked
}

// simCase is one preset of a simulator workload and the seeds it runs
// at; pass p uses runs[p % len(runs)].
type simCase struct {
	spec scenario.Spec
	runs []simRun
}

// simBench is a set-up simulator workload.
type simBench struct {
	root  string
	w     simWorkload
	seed  int64
	cases []simCase
	// setupS and buildMS hold every timed set-up: its wall seconds, and
	// the milliseconds of building every preset within it.
	setupS, buildMS []float64
	// resample makes pass time one more set-up after every run, outside
	// the pass time, so the set-up samples spread over the timed phase.
	resample bool
	setupErr error
}

// runTrials returns the experiment.TrialSeed trial numbers a preset runs
// at for a workload seed: seed 0 runs trial 0, the preset's own seed
// (the golden run); seed n > 0 runs trials (n-1)*trials+1 ... n*trials,
// so no two workload seeds share a trial.
func runTrials(workloadSeed int64, trials int) []int {
	if workloadSeed == 0 {
		return []int{0}
	}
	out := make([]int, trials)
	for j := range out {
		out[j] = int(workloadSeed-1)*trials + j + 1
	}
	return out
}

// setupSim sets the workload up once, timed.
func setupSim(root string, w simWorkload, seed int64) (*simBench, error) {
	b := &simBench{root: root, w: w, seed: seed}
	if err := b.setUp(); err != nil {
		return nil, err
	}
	return b, nil
}

// setUp times one set-up: loading the presets with their goldens (seed
// 0) or held-out digests (seed n > 0), then building every preset once.
// The first set-up gives b its cases; later ones only add samples.
func (b *simBench) setUp() error {
	t0 := time.Now()
	var h *heldout
	if b.seed > 0 {
		var err error
		if h, err = loadHeldout(b.root); err != nil {
			return err
		}
	}
	var cases []simCase
	for _, name := range b.w.presets {
		spec, ok := scenario.Get(name)
		if !ok {
			return fmt.Errorf("no preset %q", name)
		}
		c := simCase{spec: spec}
		for _, t := range runTrials(b.seed, b.w.trials) {
			r := simRun{seed: experiment.TrialSeed(spec.Seed, t)}
			if h != nil {
				r.expectHash = h.hash(name, t)
			}
			c.runs = append(c.runs, r)
		}
		if b.seed == 0 {
			g, err := os.ReadFile(filepath.Join(b.root, "testdata", "golden", name+".golden"))
			if err != nil {
				return fmt.Errorf("golden for %s: %w", name, err)
			}
			c.runs[0].expect = string(g)
		}
		cases = append(cases, c)
	}
	t1 := time.Now()
	for _, c := range cases {
		spec := c.spec
		spec.Seed = c.runs[0].seed
		if _, err := scenario.Build(spec); err != nil {
			return fmt.Errorf("build %s: %w", spec.Name, err)
		}
	}
	end := time.Now()
	b.setupS = append(b.setupS, end.Sub(t0).Seconds())
	b.buildMS = append(b.buildMS, ms(end.Sub(t1)))
	if b.cases == nil {
		b.cases = cases
	}
	return nil
}

// topUp adds timed set-ups until there are at least n. It collects
// first, so that no garbage collection the timed phase left running
// (scale200 leaves about 1 GB) overlaps the set-ups.
func (b *simBench) topUp(n int) error {
	runtime.GC()
	for len(b.setupS) < n {
		if err := b.setUp(); err != nil {
			return err
		}
	}
	return b.setupErr
}

// unchecked counts the runs whose digest had nothing to be compared
// with: no golden, no held-out record, and run only once.
func (b *simBench) unchecked() int {
	n := 0
	for _, c := range b.cases {
		for _, r := range c.runs {
			if r.self && r.done == 1 {
				n++
			}
		}
	}
	return n
}

// check compares one run of spec against its expected digest.
func (r *simRun) check(spec scenario.Spec, res *scenario.Result) error {
	if res.Name != spec.Name || res.Seed != spec.Seed || res.Events == 0 ||
		res.SimTime < spec.WithDefaults().Duration.D() {
		return fmt.Errorf("%s: implausible result (seed %d, %d events, %s simulated)",
			spec.Name, res.Seed, res.Events, res.SimTime)
	}
	r.done++
	d := res.Digest()
	if r.expectHash != "" {
		if d.Hash != r.expectHash {
			return fmt.Errorf("%s seed %d: digest hash %s, %s records %s:\n%s",
				spec.Name, spec.Seed, d.Hash, heldoutFile, r.expectHash, d.Canonical)
		}
		return nil
	}
	got := d.GoldenFile()
	if r.expect == "" {
		r.expect, r.self = got, true
		return nil
	}
	if got != r.expect {
		return fmt.Errorf("%s seed %d: digest differs from the expected one:\n--- got\n%s--- want\n%s",
			spec.Name, spec.Seed, got, r.expect)
	}
	return nil
}

// simPhase is what a series of passes measured.
type simPhase struct {
	passS     []float64            // wall seconds per pass
	runMS     map[string][]float64 // per preset, wall ms per run
	allRunMS  []float64
	events    uint64
	wall      time.Duration // sum of the pass times
	attempted int
	failed    int
	first     []*scenario.Result // the first pass's results, nil where a run failed
}

// pass runs every case once, at the seeds of pass number p, and adds
// what it measured to ph. With a non-nil sink every run is traced into
// it. A pass's time is the sum of its runs and their checks.
func (b *simBench) pass(ctx context.Context, p int, sink trace.Sink, ph *simPhase, log func(error)) {
	var passD time.Duration
	var results []*scenario.Result
	for i := range b.cases {
		c := &b.cases[i]
		run := &c.runs[p%len(c.runs)]
		spec := c.spec
		spec.Seed = run.seed
		t0 := time.Now()
		var res *scenario.Result
		var err error
		if sink == nil {
			res, err = scenario.RunContext(ctx, spec)
		} else {
			res, err = scenario.RunContextTraced(ctx, spec, sink)
		}
		d := ms(time.Since(t0))
		ph.attempted++
		if err == nil {
			err = run.check(spec, res)
		}
		passD += time.Since(t0)
		if err != nil {
			ph.failed++
			log(err)
			res = nil
		} else {
			ph.events += res.Events
			ph.runMS[spec.Name] = append(ph.runMS[spec.Name], d)
			ph.allRunMS = append(ph.allRunMS, d)
		}
		results = append(results, res)
		if b.resample {
			if err := b.setUp(); err != nil && b.setupErr == nil {
				b.setupErr = err
			}
		}
	}
	ph.passS = append(ph.passS, passD.Seconds())
	ph.wall += passD
	if ph.first == nil {
		ph.first = results
	}
}

func newSimPhase() simPhase { return simPhase{runMS: map[string][]float64{}} }

// overruns reports whether another step of the given median length
// would carry a loop that started at start past budget.
func overruns(start time.Time, step float64, budget time.Duration) bool {
	return time.Since(start)+time.Duration(step*float64(time.Second)) > budget
}

// phase runs untraced passes until another would overrun budget (always
// at least one).
func (b *simBench) phase(ctx context.Context, budget time.Duration, log func(error)) simPhase {
	ph := newSimPhase()
	start := time.Now()
	for p := 0; ; p++ {
		b.pass(ctx, p, nil, &ph, log)
		if ctx.Err() != nil || overruns(start, median(ph.passS), budget) {
			return ph
		}
	}
}

// tracedRun is what a traced simulator run measured.
type tracedRun struct {
	plain, traced     simPhase
	plainRT, tracedRT rtDelta
	samples           []profSample // CPU samples of the traced passes
}

// tracedPhase alternates an untraced pass with a traced, CPU-profiled
// pass at the same seeds until another pair would overrun budget
// (always at least one pair). Alternating exposes both kinds of pass to
// the same drift in host speed, and lets every traced digest be checked
// against the untraced one.
func (b *simBench) tracedPhase(ctx context.Context, budget time.Duration, sink trace.Sink, log func(error)) (tracedRun, error) {
	t := tracedRun{plain: newSimPhase(), traced: newSimPhase()}
	start := time.Now()
	for p := 0; ; p++ {
		before := readRuntime()
		b.pass(ctx, p, nil, &t.plain, log)
		t.plainRT = t.plainRT.plus(delta(before, readRuntime()))
		samples, rt, err := profiled(func() { b.pass(ctx, p, sink, &t.traced, log) })
		if err != nil {
			return t, err
		}
		t.samples = append(t.samples, samples...)
		t.tracedRT = t.tracedRT.plus(rt)
		if ctx.Err() != nil || overruns(start, median(t.plain.passS)+median(t.traced.passS), budget) {
			return t, nil
		}
	}
}

// runLatencyMS is the geometric mean over presets of each preset's
// median run wall time. A plain median over a mixed preset list would
// jump between presets from run to run; the geometric mean weighs every
// preset alike.
func (ph simPhase) runLatencyMS() float64 {
	names := slices.Sorted(maps.Keys(ph.runMS))
	if len(names) == 0 {
		return 0
	}
	var logSum float64
	for _, n := range names {
		logSum += math.Log(median(ph.runMS[n]))
	}
	return math.Exp(logSum / float64(len(names)))
}

// workCounts stores the exact per-pass work counts of one pass's results.
func workCounts(v values, results []*scenario.Result) {
	var events, fs, fd, fl, bs, cs, cd, cdrop, recs, inv, acc, rej float64
	for _, r := range results {
		if r == nil {
			continue
		}
		events += float64(r.Events)
		fs += float64(r.Frames.FramesSent)
		fd += float64(r.Frames.FramesDelivered)
		fl += float64(r.Frames.FramesLost)
		bs += float64(r.Frames.BytesSent)
		cs += float64(r.Ctrl.Sent)
		cd += float64(r.Ctrl.Delivered)
		cdrop += float64(r.Ctrl.Dropped)
		recs += float64(r.LogRecords)
		inv += float64(r.Investigations)
		if rep := r.Reputation; rep != nil {
			acc += float64(rep.Accepted)
			rej += float64(rep.Rejected)
		}
	}
	v["sim.events"] = events
	v["radio.frames_sent"] = fs
	v["radio.frames_delivered"] = fd
	v["radio.frames_lost"] = fl
	v["radio.bytes_sent"] = bs
	v["core.ctrl_sent"] = cs
	v["core.ctrl_delivered"] = cd
	v["core.ctrl_dropped"] = cdrop
	v["auditlog.records"] = recs
	v["detect.investigations"] = inv
	v["radio.delivery_ratio"] = ratio(fd, fd+fl)
	v["core.ctrl_delivery_ratio"] = ratio(cd, cd+cdrop) // gossip broadcasts deliver one send many times
	v["reputation.accept_ratio"] = ratio(acc, acc+rej)
}
