package scenario

import (
	"context"
	"math"
	"testing"
	"time"
)

// Bounds on the runs FuzzSpec executes, so one input costs milliseconds.
const (
	fuzzMaxNodes = 24
	fuzzMaxSim   = 5 * time.Second
)

// FuzzSpec drives arbitrary JSON through Parse (which validates) and
// RunContext (which builds and runs). A returned error is fine; a panic
// is a spec Validate should have rejected — the radio grid's speed
// guard, for one, panics on a station that outruns the declared
// mobility bound. Inputs above fuzzMaxNodes nodes or fuzzMaxSim of
// simulated time are parsed but not run.
func FuzzSpec(f *testing.F) {
	add := func(s Spec) {
		raw, err := s.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, s := range Presets() {
		add(s)
		// A copy inside the run bounds, so the preset's shape is
		// executed and not only parsed.
		s.Nodes = min(s.Nodes, fuzzMaxNodes)
		s.Duration = Dur(fuzzMaxSim)
		add(s)
	}
	for _, s := range append(invalidSpecs(), extremeSpecs()...) {
		add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if d := s.WithDefaults(); d.Nodes > fuzzMaxNodes || d.Duration.D() > fuzzMaxSim {
			return
		}
		_, _ = RunContext(context.Background(), s)
	})
}

// extremeSpecs are valid specs at the edges of the mobility models'
// ranges: trips longer than time.Duration can hold, pauses and epochs
// that would overflow a leg's end. They must run without tripping the
// radio's speed guard.
func extremeSpecs() []Spec {
	short := Dur(fuzzMaxSim)
	return []Spec{
		{Name: "crawl", Nodes: 4, Duration: short, Mobility: MobilitySpec{Model: "waypoint", MaxSpeed: 1e-300}},
		{Name: "crawl-far", Nodes: 4, Duration: short, ArenaSide: maxCoord,
			Mobility: MobilitySpec{Model: "waypoint", MinSpeed: 1e-6, MaxSpeed: 1e-6, Pause: DurPtr(time.Second)}},
		{Name: "long-pause", Nodes: 4, Duration: short, Mobility: MobilitySpec{Model: "waypoint", MaxSpeed: 2, Pause: DurPtr(math.MaxInt64)}},
		{Name: "long-epoch", Nodes: 4, Duration: short, Mobility: MobilitySpec{Model: "walk", MaxSpeed: 2, Epoch: DurPtr(math.MaxInt64)}},
		{Name: "walk-in", Nodes: 2, Duration: short, Positions: []Position{{X: -maxCoord, Y: maxCoord}, {}},
			Mobility: MobilitySpec{Model: "walk", MaxSpeed: 3}},
	}
}

func TestExtremeMobilityRuns(t *testing.T) {
	for _, s := range extremeSpecs() {
		if _, err := RunContext(context.Background(), s); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestHugeArenaFailsParse pins a spec whose coordinates are too large
// for float64 to resolve a walker's steps: at arenaSide 1e17 a 2 m/s
// node appears to jump ~16 m at a time and would trip the radio's
// speed guard. Parse must reject it instead of letting the run panic.
func TestHugeArenaFailsParse(t *testing.T) {
	raw := `{"nodes":4,"arenaSide":1e17,"mobility":{"model":"waypoint","minSpeed":2,"maxSpeed":2}}`
	if _, err := Parse([]byte(raw)); err == nil {
		t.Errorf("Parse accepted %s", raw)
	}
}
