package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"strings"

	"repro/internal/trace"
)

const repoPrefix = "repro/internal/"

// isLayer marks the packages CPU samples are attributed to.
var isLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range cpuLayers {
		m[l] = true
	}
	return m
}()

// repoPackage returns the repro/internal package a pprof function name
// belongs to ("repro/internal/olsr.(*Router).selectMPRs" -> "olsr").
func repoPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// attribute names the bucket one CPU sample belongs to. The sample goes
// to its innermost frame in a layer package. Frames of other repo
// packages fold into their caller: addr and geo are containers and
// geometry used on another layer's behalf. A sample with no layer frame
// is gc when the GC background mark worker is on the stack, and other
// otherwise.
func attribute(stack []string) string {
	gc := false
	for _, fn := range stack {
		if pkg, ok := repoPackage(fn); ok && isLayer[pkg] {
			return pkg
		}
		if fn == "runtime.gcBgMarkWorker" {
			gc = true
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// layerCPU sums samples and CPU time per bucket.
type layerCPU struct {
	samples map[string]int64
	cpuNS   map[string]int64
	total   int64 // samples
}

func attributeAll(samples []profSample) layerCPU {
	out := layerCPU{samples: map[string]int64{}, cpuNS: map[string]int64{}}
	for _, s := range samples {
		b := attribute(s.stack)
		out.samples[b] += s.count
		out.cpuNS[b] += s.cpuNS
		out.total += s.count
	}
	return out
}

// countingSink is a trace.Sink that only counts the events the
// per-layer work metrics need. It allocates nothing per event.
type countingSink struct {
	helloRx, tcRx, recvCtrl, seals, verdicts, trustUpdates, ingests uint64
}

func (c *countingSink) Event(e trace.Event) {
	switch e.Plane {
	case trace.PlaneOLSR:
		switch e.Kind {
		case trace.KindHelloRx:
			c.helloRx++
		case trace.KindTCRx:
			c.tcRx++
		}
	case trace.PlaneNet:
		if e.Kind == trace.KindRecv && e.Msg == "ctrl" {
			c.recvCtrl++
		}
	case trace.PlaneEvidence:
		if e.Kind == trace.KindSeal {
			c.seals++
		}
	case trace.PlaneDetect:
		if e.Kind == trace.KindVerdict {
			c.verdicts++
		}
	case trace.PlaneTrust:
		if e.Kind == trace.KindUpdate {
			c.trustUpdates++
		}
	case trace.PlaneReputation:
		if e.Kind == trace.KindIngest {
			c.ingests++
		}
	}
}

// addTo stores the counts, divided by passes, under their metric names.
func (c *countingSink) addTo(v values, passes float64) {
	v["olsr.hello_rx"] = ratio(float64(c.helloRx), passes)
	v["olsr.tc_rx"] = ratio(float64(c.tcRx), passes)
	v["net.recv_ctrl"] = ratio(float64(c.recvCtrl), passes)
	v["evidence.seals"] = ratio(float64(c.seals), passes)
	v["detect.verdicts"] = ratio(float64(c.verdicts), passes)
	v["trust.updates"] = ratio(float64(c.trustUpdates), passes)
	v["reputation.ingests"] = ratio(float64(c.ingests), passes)
}

// Runtime counters read around a phase.
const (
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtAllocObj   = "/gc/heap/allocs:objects"
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtSchedLat   = "/sched/latencies:seconds"
)

// rtSnapshot is one read of the runtime counters.
type rtSnapshot struct {
	gcCPU                          float64
	allocObj, allocBytes, gcCycles uint64
	schedCounts                    []uint64
	schedBuckets                   []float64
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: rtGCCPU}, {Name: rtAllocObj}, {Name: rtAllocBytes}, {Name: rtGCCycles}, {Name: rtSchedLat}}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return rtSnapshot{
		gcCPU:        s[0].Value.Float64(),
		allocObj:     s[1].Value.Uint64(),
		allocBytes:   s[2].Value.Uint64(),
		gcCycles:     s[3].Value.Uint64(),
		schedCounts:  append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
}

// rtDelta is the change of the runtime counters over some stretch of
// work.
type rtDelta struct {
	gcCPU                          float64 // seconds
	allocObj, allocBytes, gcCycles uint64
}

func delta(before, after rtSnapshot) rtDelta {
	return rtDelta{
		gcCPU:      after.gcCPU - before.gcCPU,
		allocObj:   after.allocObj - before.allocObj,
		allocBytes: after.allocBytes - before.allocBytes,
		gcCycles:   after.gcCycles - before.gcCycles,
	}
}

func (d rtDelta) plus(o rtDelta) rtDelta {
	return rtDelta{d.gcCPU + o.gcCPU, d.allocObj + o.allocObj, d.allocBytes + o.allocBytes, d.gcCycles + o.gcCycles}
}

// profiled runs f under the CPU profiler and returns the decoded samples
// and the runtime counters' change over f.
func profiled(f func()) ([]profSample, rtDelta, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, rtDelta{}, fmt.Errorf("cpu profile: %w", err)
	}
	before := readRuntime()
	f()
	d := delta(before, readRuntime())
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	return samples, d, err
}

// schedP99ms is the 99th percentile of goroutine scheduling latency
// between two snapshots, as the upper edge of the bucket it falls in.
func schedP99ms(before, after rtSnapshot) float64 {
	var total uint64
	delta := make([]uint64, len(after.schedCounts))
	for i := range delta {
		delta[i] = after.schedCounts[i] - before.schedCounts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			hi := after.schedBuckets[i+1]
			if hi > 1e9 { // +Inf bucket
				hi = after.schedBuckets[i]
			}
			return hi * 1000
		}
	}
	return 0
}
