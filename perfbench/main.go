// Command perfbench is the repository's benchmark: it runs one workload
// through the public entry points (scenario.Build, scenario.RunContext,
// scenario.RunContextTraced, manetd over HTTP, campaign.Manager.Stats),
// checks every run's digest, and prints its metrics. README.md in this
// directory defines the workloads and metrics.
//
//	bash perfbench/run.sh --workload topology --seed 0 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics of an untraced run; with --trace 1 it
// holds the per-layer metrics of a run that also traces and CPU-profiles
// part of its work. Human-readable tables precede that line.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string // checkout root: goldens are read from root/testdata/golden
	record   string // write the per-layer metrics of a traced run here
	compare  string // render a before/after layer table against this record
	// writeHeldout, if set, is where to write the held-out digests
	// instead of running a workload.
	writeHeldout string
}

// workloads is every workload name in report order.
var workloads = []string{"topology", "gossip", "scale200", "service"}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloads))
	fs.Int64Var(&o.seed, "seed", 0, "workload seed: 0 runs the preset seeds against the goldens, n > 0 held-out trial seeds")
	fs.IntVar(&o.seconds, "seconds", 20, "seconds of timed work")
	fs.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from a traced, profiled run")
	fs.StringVar(&o.root, "root", ".", "repository checkout the goldens are read from")
	fs.StringVar(&o.record, "record", "", "with --trace 1, write the per-layer metrics to this file")
	fs.StringVar(&o.compare, "compare", "", "with --trace 1, print a before/after layer table against this record")
	fs.StringVar(&o.writeHeldout, "write-heldout", "", "write the held-out digests to this file (normally "+heldoutFile+") and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.writeHeldout != "" {
		if err := writeHeldout(context.Background(), o.writeHeldout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if o.seed < 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seed must be >= 0, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	out, err := runWorkload(context.Background(), o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	catalogue, v := endToEnd, out.e2e
	if o.trace == 1 {
		catalogue, v = perLayer, out.layer
	}
	metrics, err := render(catalogue, v)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, out.report)
	if o.trace == 1 {
		if err := layerReport(stdout, o, v); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// outcome is what one workload run measured.
type outcome struct {
	e2e, layer        values
	attempted, failed int
	report            string // human-readable end-to-end table
}

// How many set-ups a run times at least; setup_s is their median. A
// simulator set-up takes a few milliseconds, so an untraced simulator
// run also times one after every run of its timed phase, outside the
// pass times: the samples then spread over the phase like the passes
// do, instead of all falling into one burst of host noise. A service
// set-up takes about 0.3 s; half of them run before the timed phase and
// half after it.
const (
	simSetupReps     = 21
	serviceSetupReps = 6
)

func runWorkload(ctx context.Context, o options, stderr io.Writer) (outcome, error) {
	logErr := func(err error) { fmt.Fprintf(stderr, "perfbench: FAIL %v\n", err) }
	budget := time.Duration(o.seconds) * time.Second
	if w, ok := simWorkloads[o.workload]; ok {
		return runSim(ctx, o, w, budget, logErr)
	}
	if o.workload == "service" {
		return runService(ctx, o, budget, logErr)
	}
	return outcome{}, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloads)
}

func runSim(ctx context.Context, o options, w simWorkload, budget time.Duration, logErr func(error)) (outcome, error) {
	b, err := setupSim(o.root, w, o.seed)
	if err != nil {
		return outcome{}, err
	}
	if o.trace == 0 {
		b.resample = true
		ph := b.phase(ctx, budget, logErr)
		b.resample = false
		if err := b.topUp(simSetupReps); err != nil {
			return outcome{}, err
		}
		out := outcome{attempted: ph.attempted, failed: ph.failed, e2e: values{
			"setup_s":            median(b.setupS),
			"pass_s":             median(ph.passS),
			"sim_events_per_s":   float64(ph.events) / ph.wall.Seconds(),
			"max_rss_mb":         maxRSSMB(),
			"submit_done_ms_p50": ph.runLatencyMS(),
		}}
		base := fmt.Sprintf("%d passes of %d presets, %d runs, %d set-ups", len(ph.passS), len(w.presets), ph.attempted, len(b.setupS))
		if n := b.unchecked(); n > 0 {
			base += fmt.Sprintf("; %d runs ran once with no golden or held-out digest, so only their plausibility was checked", n)
		}
		out.report = e2eReport(o, out, base)
		return out, nil
	}

	if err := b.topUp(simSetupReps); err != nil {
		return outcome{}, err
	}
	sink := &countingSink{}
	before := readRuntime()
	t, err := b.tracedPhase(ctx, budget, sink, logErr)
	if err != nil {
		return outcome{}, err
	}
	passes := float64(len(t.traced.passS))
	v := zeroValues(perLayer)
	v["sched.latency_ms_p99"] = schedP99ms(before, readRuntime())
	cpuValues(v, attributeAll(t.samples), passes)
	v["gc.rt_cpu_ms"] = t.tracedRT.gcCPU * 1000 / passes
	workCounts(v, t.traced.first)
	sink.addTo(v, passes)
	allocValues(v, t.plainRT, float64(len(t.plain.passS)))
	unitCosts(v)
	v["scenario.build_ms"] = median(b.buildMS)
	for name, xs := range t.plain.runMS {
		v["scenario.run_ms."+name] = median(xs)
	}
	v["submit_done_ms_p99"] = quantile(t.plain.allRunMS, 0.99)
	v["trace.overhead"] = median(t.traced.passS) / median(t.plain.passS)
	return outcome{layer: v,
		attempted: t.plain.attempted + t.traced.attempted,
		failed:    t.plain.failed + t.traced.failed}, nil
}

func runService(ctx context.Context, o options, budget time.Duration, logErr func(error)) (outcome, error) {
	var setupS []float64
	setUp := func() (*serviceBench, error) {
		t0 := time.Now()
		b, err := setupService(ctx, o.seed)
		if err == nil {
			setupS = append(setupS, time.Since(t0).Seconds())
		}
		return b, err
	}
	// extraSetUps times n more set-ups, each torn down at once.
	extraSetUps := func(n int) error {
		for range n {
			b, err := setUp()
			if err != nil {
				return err
			}
			if err := b.close(); err != nil {
				return err
			}
		}
		return nil
	}
	workers := runtime.NumCPU()
	if o.trace == 0 {
		if err := extraSetUps(serviceSetupReps/2 - 1); err != nil {
			return outcome{}, err
		}
		b, err := setUp()
		if err != nil {
			return outcome{}, err
		}
		ph := b.phase(budget, workers, logErr)
		if err := b.close(); err != nil {
			return outcome{}, err
		}
		if err := extraSetUps(serviceSetupReps - len(setupS)); err != nil {
			return outcome{}, err
		}
		out := outcome{attempted: len(ph.slots), failed: ph.failed(), e2e: values{
			"setup_s":            median(setupS),
			"pass_s":             median(ph.passes()),
			"sim_events_per_s":   ph.eventsPerS(),
			"max_rss_mb":         maxRSSMB(),
			"submit_done_ms_p50": median(ph.latenciesMS()),
		}}
		lat := ph.latenciesMS()
		out.report = e2eReport(o, out, fmt.Sprintf("%d campaigns at %d/s, %d workers, %d set-ups; submit_done_ms_p99 %.3f over %d samples",
			len(ph.slots), serviceRate, workers, len(setupS), quantile(lat, 0.99), len(lat)))
		return out, nil
	}

	b, err := setUp()
	if err != nil {
		return outcome{}, err
	}
	// An untraced half, then a CPU-profiled half on the same server. The
	// service runs no counting sink: manetd picks its runs' sinks.
	before := readRuntime()
	plain := b.phase(budget/2, workers, logErr)
	plainRT := delta(before, readRuntime())
	var traced servicePhase
	samples, tracedRT, err := profiled(func() { traced = b.phase(budget/2, workers, logErr) })
	if err != nil {
		b.close()
		return outcome{}, err
	}
	v := zeroValues(perLayer)
	serviceLayerValues(v, plain, b)
	if err := b.close(); err != nil {
		return outcome{}, err
	}
	passes := traced.donePasses()
	cpuValues(v, attributeAll(samples), passes)
	v["gc.rt_cpu_ms"] = ratio(tracedRT.gcCPU*1000, passes)
	allocValues(v, plainRT, plain.donePasses())
	v["trace.overhead"] = median(traced.passes()) / median(plain.passes())

	// Work counts of one pass: every cycle spec run once through a
	// counting sink, each traced digest checked against the direct run.
	sink := &countingSink{}
	cycle := &simBench{}
	for i, spec := range serviceSpecs(o.seed) {
		run := simRun{seed: spec.Seed, expect: b.expect[i].digest.GoldenFile()}
		cycle.cases = append(cycle.cases, simCase{spec: spec, runs: []simRun{run}})
	}
	ph := newSimPhase()
	cycle.pass(ctx, 0, sink, &ph, logErr)
	workCounts(v, ph.first)
	sink.addTo(v, 1)
	unitCosts(v)
	return outcome{layer: v,
		attempted: len(plain.slots) + len(traced.slots) + ph.attempted,
		failed:    plain.failed() + traced.failed() + ph.failed}, nil
}

// zeroValues returns every metric of the catalogue at 0.
func zeroValues(catalogue []metric) values {
	v := values{}
	for _, m := range catalogue {
		v[m.Name] = 0
	}
	return v
}

// cpuValues stores each bucket's CPU per pass and share of samples.
func cpuValues(v values, cpu layerCPU, passes float64) {
	v["prof.samples"] = float64(cpu.total)
	v["bench.passes"] = passes
	for _, l := range bucketNames {
		v[l+".cpu_ms"] = ratio(float64(cpu.cpuNS[l])/1e6, passes)
		v[l+".cpu_share"] = ratio(float64(cpu.samples[l]), float64(cpu.total))
	}
}

// allocValues stores the runtime's allocation and GC counts per pass.
func allocValues(v values, d rtDelta, passes float64) {
	v["alloc.objects"] = ratio(float64(d.allocObj), passes)
	v["alloc.bytes"] = ratio(float64(d.allocBytes), passes)
	v["gc.cycles"] = ratio(float64(d.gcCycles), passes)
}

// unitCosts derives per-unit CPU costs from the per-pass CPU and counts.
func unitCosts(v values) {
	v["olsr.us_per_rx"] = ratio(v["olsr.cpu_ms"]*1e3, v["olsr.hello_rx"]+v["olsr.tc_rx"])
	v["core.us_per_ctrl_rx"] = ratio(v["core.cpu_ms"]*1e3, v["net.recv_ctrl"])
	v["auditlog.us_per_record"] = ratio(v["auditlog.cpu_ms"]*1e3, v["auditlog.records"])
	v["sim.ns_per_event"] = ratio(v["sim.cpu_ms"]*1e6, v["sim.events"])
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// e2eReport renders the end-to-end metrics with their units, plus
// error_frac, which the JSON line carries as failed/attempted.
func e2eReport(o options, out outcome, base string) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "workload %s seed %d seconds %d: %s\n", o.workload, o.seed, o.seconds, base)
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "  %-20s %14.6g %s\n", m.Name, out.e2e[m.Name], m.Unit)
	}
	fmt.Fprintf(&b, "  %-20s %14.6g fraction (%d of %d)\n", "error_frac",
		ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	return b.String()
}
