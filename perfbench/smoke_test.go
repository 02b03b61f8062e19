package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
)

// errorFrac is failed over attempted, as the result line reports it.
func errorFrac(attempted, failed int) float64 { return ratio(float64(failed), float64(attempted)) }

// smokeSim runs one pass of b, which must match, then one with the first
// case's expected digest replaced, which must count as failed.
func smokeSim(t *testing.T, b *simBench) {
	t.Helper()
	ctx := context.Background()
	ph := b.phase(ctx, 0, func(err error) { t.Error(err) })
	if ph.attempted != len(b.cases) || errorFrac(ph.attempted, ph.failed) != 0 {
		t.Fatalf("clean pass: %d of %d failed", ph.failed, ph.attempted)
	}
	r := &b.cases[0].runs[0]
	r.expect = strings.Replace(r.expect, "events:", "events: 1", 1)
	ph = newSimPhase()
	b.pass(ctx, 0, &countingSink{}, &ph, func(error) {})
	if errorFrac(ph.attempted, ph.failed) == 0 {
		t.Fatal("a wrong expected digest left error_frac at 0")
	}
}

func TestSmokeTopology(t *testing.T) {
	b, err := setupSim("..", simWorkload{presets: []string{"baseline"}, trials: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	smokeSim(t, b)
}

func TestSmokeGossip(t *testing.T) {
	b, err := setupSim("..", simWorkload{presets: []string{"badmouth"}, trials: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	smokeSim(t, b)
}

// TestSmokeHeldout runs topology's first preset at a held-out seed,
// checked against the recorded hash, then with that hash corrupted.
func TestSmokeHeldout(t *testing.T) {
	b, err := setupSim("..", simWorkload{presets: []string{"baseline"}, trials: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ph := b.phase(ctx, 0, func(err error) { t.Error(err) })
	if ph.attempted != 1 || ph.failed != 0 || b.unchecked() != 0 {
		t.Fatalf("clean pass: %d of %d failed, %d unchecked", ph.failed, ph.attempted, b.unchecked())
	}
	b.cases[0].runs[0].expectHash = "0000000000000000"
	ph = newSimPhase()
	b.pass(ctx, 0, nil, &ph, func(error) {})
	if ph.failed != 1 {
		t.Fatal("a wrong held-out hash left error_frac at 0")
	}
}

func TestHeldoutRecordCoversWorkloads(t *testing.T) {
	h, err := loadHeldout("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range simPresetNames() {
		hs := h.Trials[name]
		if want := int(h.MaxSeed) * simWorkloadOf(name).trials; len(hs) != want || slices.Contains(hs, "") {
			t.Errorf("%s: %d held-out hashes (some empty: %v), want %d", name, len(hs), slices.Contains(hs, ""), want)
		}
	}
}

// TestSmokeScale200 sets scale200 up at a held-out seed, whose run
// carries its recorded hash, then cuts the preset to 3 s of simulated
// time and drops that hash: the first pass fixes the expected digest
// and the next must reproduce it.
func TestSmokeScale200(t *testing.T) {
	b, err := setupSim("..", simWorkloads["scale200"], 5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := loadHeldout("..")
	if err != nil {
		t.Fatal(err)
	}
	r := &b.cases[0].runs
	if len(*r) != 1 || (*r)[0].expect != "" || (*r)[0].seed != experiment.TrialSeed(1, 5) ||
		(*r)[0].expectHash == "" || (*r)[0].expectHash != h.hash("linkspoof-200", 5) {
		t.Fatalf("runs %+v: want one run at TrialSeed(1, 5) with its held-out hash", *r)
	}
	b.cases[0].spec.Duration = scenario.Dur(3 * time.Second)
	(*r)[0].expectHash = ""
	b.phase(context.Background(), 0, func(err error) { t.Fatal(err) })
	if (*r)[0].expect == "" || b.unchecked() != 1 {
		t.Fatalf("the first pass did not fix the expected digest (%d unchecked)", b.unchecked())
	}
	smokeSim(t, b)
}

func TestSmokeService(t *testing.T) {
	b, err := setupService(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	ph := b.phase(time.Second, 2, func(err error) { t.Error(err) })
	if len(ph.slots) != serviceRate || ph.failed() != 0 {
		t.Fatalf("clean phase: %d of %d failed", ph.failed(), len(ph.slots))
	}
	if len(ph.passes()) != serviceRate/serviceCycle || ph.eventsPerS() <= 0 {
		t.Errorf("passes %v, events/s %v", ph.passes(), ph.eventsPerS())
	}
	v := values{}
	serviceLayerValues(v, ph, b)
	if v["campaign.retained"] != serviceRate || v["manetd.get_bytes"] <= 0 {
		t.Errorf("retained %v campaigns, %v bytes per GET", v["campaign.retained"], v["manetd.get_bytes"])
	}
	b.expect[0].digest.Hash = "0000000000000000"
	ph = b.phase(time.Second, 2, func(error) {})
	if errorFrac(len(ph.slots), ph.failed()) == 0 {
		t.Fatal("a wrong expected digest left error_frac at 0")
	}
}

// lastJSON decodes the result line the command printed last.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func TestRunCommand(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "topology", "--seconds", "1", "--root", ".."}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	r := lastJSON(t, out.String())
	if !r.Correct || r.Attempted != len(simWorkloads["topology"].presets) || len(r.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", r)
	}

	out.Reset()
	if code := run([]string{"--workload", "topology", "--seconds", "2", "--trace", "1", "--root", ".."}, &out, io.Discard); code != 0 {
		t.Fatalf("traced: exit %d", code)
	}
	r = lastJSON(t, out.String())
	if !r.Correct || len(r.Metrics) != len(perLayer) {
		t.Fatalf("traced result: correct %v, %d metrics", r.Correct, len(r.Metrics))
	}
	for _, l := range cpuLayers {
		if share := r.Metrics[l+".cpu_share"].Value; share > r.Metrics["olsr.cpu_share"].Value {
			t.Errorf("%s holds %.2f of topology's CPU, more than olsr", l, share)
		}
	}
	if r.Metrics["sim.events"].Value != 129397 {
		t.Errorf("sim.events = %v per pass, want the goldens' 129397", r.Metrics["sim.events"].Value)
	}

	for _, args := range [][]string{
		{"--workload", "topology", "--seconds", "1", "--root", t.TempDir()}, // no goldens
		{"--workload", "nosuch"},
		{"--workload", "topology", "--seed", "-1"},
	} {
		out.Reset()
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q", args, code, out.String())
		}
	}
}
