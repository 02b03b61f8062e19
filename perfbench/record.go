package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is a saved traced run: the per-layer metrics plus what they
// were measured on, so a later run can be rendered against it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Metrics  values `json:"metrics"`
}

// layerReport prints the layer table of a traced run, writes it to
// --record and renders it against --compare.
func layerReport(w io.Writer, o options, v values) error {
	fmt.Fprintf(w, "layers of %s (seed %d): %.0f profile samples over %.0f traced passes, %.0f events/pass\n",
		o.workload, o.seed, v["prof.samples"], v["bench.passes"], v["sim.events"])
	fmt.Fprintf(w, "  %-11s %8s %9s %12s\n", "layer", "samples", "share", "cpu_ms/pass")
	for _, l := range sortedBuckets(v) {
		share := v[l+".cpu_share"]
		if share == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-11s %8.0f %8.1f%% %12.2f\n", l, share*v["prof.samples"], 100*share, v[l+".cpu_ms"])
	}
	fmt.Fprintf(w, "  gc per runtime/metrics: %.2f cpu_ms/pass (profile: %.2f, background workers only)\n",
		v["gc.rt_cpu_ms"], v["gc.cpu_ms"])
	fmt.Fprintf(w, "  trace.overhead %.3f (traced over untraced median pass)\n", v["trace.overhead"])

	if o.record != "" {
		b, err := json.MarshalIndent(record{o.workload, o.seed, o.seconds, v}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.record, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("write record: %w", err)
		}
	}
	if o.compare == "" {
		return nil
	}
	data, err := os.ReadFile(o.compare)
	if err != nil {
		return fmt.Errorf("read record: %w", err)
	}
	var before record
	if err := json.Unmarshal(data, &before); err != nil {
		return fmt.Errorf("record %s: %w", o.compare, err)
	}
	compareLayers(w, before, record{o.workload, o.seed, o.seconds, v})
	return nil
}

// compareLayers renders two records' layer tables side by side. Every
// share names its sample base and every per-pass figure its pass count.
func compareLayers(w io.Writer, before, after record) {
	b, a := before.Metrics, after.Metrics
	fmt.Fprintf(w, "before/after %s -> %s (seed %d -> %d)\n", before.Workload, after.Workload, before.Seed, after.Seed)
	fmt.Fprintf(w, "  base: before %.0f samples over %.0f passes, %.0f events/pass; after %.0f samples over %.0f passes, %.0f events/pass\n",
		b["prof.samples"], b["bench.passes"], b["sim.events"], a["prof.samples"], a["bench.passes"], a["sim.events"])
	fmt.Fprintf(w, "  %-11s %9s %9s %14s %14s %8s\n", "layer", "share", "share", "cpu_ms/pass", "cpu_ms/pass", "after/")
	fmt.Fprintf(w, "  %-11s %9s %9s %14s %14s %8s\n", "", "before", "after", "before", "after", "before")
	for _, l := range sortedBuckets(a) {
		sb, sa := b[l+".cpu_share"], a[l+".cpu_share"]
		if sb == 0 && sa == 0 {
			continue
		}
		cb, ca := b[l+".cpu_ms"], a[l+".cpu_ms"]
		r := "-"
		if cb > 0 {
			r = fmt.Sprintf("%.3f", ca/cb)
		}
		fmt.Fprintf(w, "  %-11s %8.1f%% %8.1f%% %14.2f %14.2f %8s\n", l, 100*sb, 100*sa, cb, ca, r)
	}
}

// sortedBuckets returns the buckets by descending CPU share.
func sortedBuckets(v values) []string {
	out := append([]string(nil), bucketNames...)
	sort.SliceStable(out, func(i, j int) bool { return v[out[i]+".cpu_share"] > v[out[j]+".cpu_share"] })
	return out
}
