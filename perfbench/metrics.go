package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric is one entry of the benchmark's metric catalogue. The same
// names, units and directions appear in BENCHMARK.json at the repository
// root; catalogue_test.go keeps the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a researcher, CI or a manetd client waits
// for. Every workload reports every one of them from an untraced run.
//
// Every bound is 0.25, the widest the benchmark format allows. On a
// shared 2-core host the quartile spread over ten seeds reached 9-36%
// for pass_s, and medians of sets taken an hour apart differed by up to
// a third, because the host's speed drifts; a bound of three times the
// spread is out of reach there (README.md, "Measured").
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.25},
	{"sim_events_per_s", "1/s", "higher", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
	{"submit_done_ms_p50", "ms", "lower", 0.25},
}

// cpuLayers are the layers CPU samples are attributed to: the
// repro/internal packages named here, plus gc (GC background workers
// with no repo frame) and other (everything else with no repo frame:
// the Go scheduler, net/http plumbing, the benchmark's own code).
var cpuLayers = []string{
	"sim", "radio", "olsr", "core", "wire", "auditlog", "detect", "trust",
	"reputation", "signature", "mobility", "scenario", "attack", "trace",
	"campaign", "manetd",
}

// bucketNames are cpuLayers plus the two buckets without a repo frame.
var bucketNames = append(append([]string{}, cpuLayers...), "gc", "other")

// simPresetNames lists every preset of the simulator workloads, in
// workload order; each gets a scenario.run_ms.<preset> span metric.
func simPresetNames() []string {
	var out []string
	for _, w := range []string{"topology", "gossip", "scale200"} {
		out = append(out, simWorkloads[w].presets...)
	}
	return out
}

// perLayer are the single-layer numbers of a traced run. A layer a
// workload does not exercise reads 0 there (the service workload runs no
// preset, the simulator workloads submit no campaign).
var perLayer = func() []metric {
	var m []metric
	add := func(name, unit, better string) { m = append(m, metric{Name: name, Unit: unit, Better: better}) }
	add("prof.samples", "count", "higher")
	add("bench.passes", "count", "higher")
	for _, l := range bucketNames {
		add(l+".cpu_ms", "ms", "lower")
		add(l+".cpu_share", "fraction", "lower")
	}
	add("gc.rt_cpu_ms", "ms", "lower")
	for _, n := range []string{
		"sim.events", "radio.frames_sent", "radio.frames_delivered", "radio.frames_lost",
		"core.ctrl_sent", "core.ctrl_delivered", "core.ctrl_dropped",
		"auditlog.records", "detect.investigations",
		"olsr.hello_rx", "olsr.tc_rx", "net.recv_ctrl", "evidence.seals",
		"detect.verdicts", "trust.updates", "reputation.ingests",
	} {
		add(n, "count", "lower")
	}
	add("radio.bytes_sent", "bytes", "lower")
	add("alloc.objects", "count", "lower")
	add("alloc.bytes", "bytes", "lower")
	add("gc.cycles", "count", "lower")
	add("olsr.us_per_rx", "us", "lower")
	add("core.us_per_ctrl_rx", "us", "lower")
	add("auditlog.us_per_record", "us", "lower")
	add("sim.ns_per_event", "ns", "lower")
	add("radio.delivery_ratio", "fraction", "higher")
	add("core.ctrl_delivery_ratio", "fraction", "higher")
	add("reputation.accept_ratio", "fraction", "higher")
	add("scenario.build_ms", "ms", "lower")
	for _, p := range simPresetNames() {
		add("scenario.run_ms."+p, "ms", "lower")
	}
	add("submit_done_ms_p99", "ms", "lower")
	add("manetd.submit_ms_p50", "ms", "lower")
	add("manetd.submit_ms_p99", "ms", "lower")
	add("manetd.get_ms_p50", "ms", "lower")
	add("manetd.get_ms_p99", "ms", "lower")
	add("manetd.get_bytes", "bytes", "lower")
	add("campaign.queue_wait_ms_p50", "ms", "lower")
	add("campaign.queue_wait_ms_p99", "ms", "lower")
	add("campaign.run_ms_p50", "ms", "lower")
	add("campaign.run_ms_p99", "ms", "lower")
	add("campaign.rejected", "count", "lower")
	add("campaign.retained", "count", "lower")
	add("sched.latency_ms_p99", "ms", "lower")
	add("bench.gen_lag_ms_max", "ms", "lower")
	add("trace.overhead", "ratio", "lower")
	return m
}()

// values holds a run's measured metrics by name.
type values map[string]float64

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render checks that v holds exactly the metrics of the catalogue and
// attaches each one's unit.
func render(catalogue []metric, v values) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(catalogue))
	for _, m := range catalogue {
		x, ok := v[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: x, Unit: m.Unit}
	}
	if len(v) != len(catalogue) {
		var extra []string
		for n := range v {
			if _, ok := out[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the catalogue: %v", extra)
	}
	return out, nil
}

// writeResult prints the result object as one JSON line.
func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
