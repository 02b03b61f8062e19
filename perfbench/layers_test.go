package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestAttributeFixture(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"addr folds into olsr", []string{
			"runtime.mapaccess2",
			"repro/internal/addr.Set.Has",
			"repro/internal/olsr.(*Router).selectMPRs",
			"repro/internal/olsr.(*Router).afterTopologyChange",
			"repro/internal/core.(*Node).handleFrame",
			"repro/internal/sim.(*Scheduler).RunUntil",
		}, "olsr"},
		{"geo folds into radio", []string{
			"repro/internal/geo.Point.Dist",
			"repro/internal/radio.(*Medium).Send",
			"repro/internal/core.(*Node).send",
		}, "radio"},
		{"closure of a layer", []string{
			"sort.insertionSortCmpFunc",
			"repro/internal/olsr.(*Router).selectMPRs.func1",
			"repro/internal/olsr.(*Router).selectMPRs",
		}, "olsr"},
		{"GC background is separate", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, "gc"},
		{"GC assist stays with the allocating layer", []string{
			"runtime.gcAssistAlloc",
			"runtime.mallocgc",
			"encoding/json.Unmarshal",
			"repro/internal/core.(*Node).handleCtrl",
		}, "core"},
		{"no repo frame", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{"unlisted repo package alone", []string{"repro/internal/addr.NewSet", "main.main"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}

	cpu := attributeAll([]profSample{
		{stack: cases[0].stack, count: 3, cpuNS: 30e6},
		{stack: cases[3].stack, count: 1, cpuNS: 10e6},
	})
	if cpu.total != 4 || cpu.samples["olsr"] != 3 || cpu.cpuNS["gc"] != 10e6 {
		t.Errorf("attributeAll = %+v", cpu)
	}
	v := zeroValues(perLayer)
	cpuValues(v, cpu, 2)
	if v["olsr.cpu_share"] != 0.75 || v["olsr.cpu_ms"] != 15 || v["gc.cpu_ms"] != 5 || v["prof.samples"] != 4 {
		t.Errorf("cpuValues: olsr %.3f share %.1f ms, gc %.1f ms, %v samples",
			v["olsr.cpu_share"], v["olsr.cpu_ms"], v["gc.cpu_ms"], v["prof.samples"])
	}
}

//go:noinline
func burnCPU(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			n += i * i
		}
	}
	return n
}

// TestParseProfile decodes a real CPU profile of this process.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burn int64
	for _, s := range samples {
		if s.count <= 0 || s.cpuNS <= 0 {
			t.Fatalf("sample without values: %+v", s)
		}
		total += s.count
		if slices.ContainsFunc(s.stack, func(fn string) bool { return strings.HasSuffix(fn, ".burnCPU") }) {
			burn += s.count
		}
	}
	if total < 5 || burn*2 < total {
		t.Errorf("%d samples, %d in burnCPU", total, burn)
	}
	for _, bad := range [][]byte{{0x12, 0xff}, gzipped([]byte{0x12, 0xff})} {
		if _, err := parseProfile(bad); err == nil {
			t.Errorf("profile %x parsed without error", bad)
		}
	}
}

func gzipped(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(b)
	zw.Close()
	return buf.Bytes()
}

func TestCountingSink(t *testing.T) {
	s := &countingSink{}
	for _, e := range []trace.Event{
		{Plane: trace.PlaneOLSR, Kind: trace.KindHelloRx},
		{Plane: trace.PlaneOLSR, Kind: trace.KindHelloTx},
		{Plane: trace.PlaneOLSR, Kind: trace.KindTCRx},
		{Plane: trace.PlaneNet, Kind: trace.KindRecv, Msg: "ctrl"},
		{Plane: trace.PlaneNet, Kind: trace.KindRecv, Msg: "olsr"},
		{Plane: trace.PlaneEvidence, Kind: trace.KindSeal},
		{Plane: trace.PlaneDetect, Kind: trace.KindVerdict},
		{Plane: trace.PlaneTrust, Kind: trace.KindUpdate},
		{Plane: trace.PlaneReputation, Kind: trace.KindIngest},
		{Plane: trace.PlaneSched, Kind: trace.KindDispatch},
	} {
		s.Event(e)
	}
	v := values{}
	s.addTo(v, 0.5)
	for name, want := range map[string]float64{
		"olsr.hello_rx": 2, "olsr.tc_rx": 2, "net.recv_ctrl": 2, "evidence.seals": 2,
		"detect.verdicts": 2, "trust.updates": 2, "reputation.ingests": 2,
	} {
		if v[name] != want {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
}

func TestSchedP99(t *testing.T) {
	before := rtSnapshot{schedCounts: []uint64{0, 0, 0}, schedBuckets: []float64{0, 0.001, 0.002, 0.004}}
	after := rtSnapshot{schedCounts: []uint64{98, 1, 1}, schedBuckets: before.schedBuckets}
	if got := schedP99ms(before, after); got != 2 {
		t.Errorf("p99 = %v ms, want 2 (upper edge of the second bucket)", got)
	}
}
