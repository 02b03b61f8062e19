package radio

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/geo"
	"repro/internal/sim"
)

// The equivalence harness: the spatial-grid Medium must deliver exactly
// what the scan reference model (scanMedium, scan_test.go) delivers. The
// two run the same randomized campaign — placements, mobility steps, power
// cycling, re-attachment, broadcasts — on identically seeded schedulers,
// and every observable (neighbor lists, delivery order, counters) must
// match element for element. Because delivery loss draws from the
// scheduler RNG per in-range candidate, any divergence in the candidate
// visit order desynchronizes the streams and shows up immediately.

// mirror is the scan oracle and the grid medium over the same station set.
type mirror struct {
	t     *testing.T
	scanS *sim.Scheduler
	gridS *sim.Scheduler
	scan  *scanMedium
	grid  *Medium

	n       int
	pos     []geo.Point // shared mutable positions, indexed by station
	scanLog []string
	gridLog []string
}

// newMirror builds N stations at random positions on both mediums.
// maxSpeed must bound every subsequent move step.
func newMirror(t *testing.T, seed int64, n int, prop Propagation, maxSpeed float64, arena geo.Rect, rng *rand.Rand) *mirror {
	t.Helper()
	cfg := Config{Prop: prop, PropDelay: time.Millisecond, MaxSpeed: maxSpeed}
	m := &mirror{t: t, n: n, pos: make([]geo.Point, n+1), scanS: sim.New(seed), gridS: sim.New(seed)}
	m.scan = newScanMedium(m.scanS, cfg)
	m.grid = NewMedium(m.gridS, cfg)
	for i := 1; i <= n; i++ {
		m.pos[i] = arena.RandPoint(rng)
		m.attach(i)
	}
	return m
}

// attach (re-)attaches station i on both mediums.
func (m *mirror) attach(i int) {
	id := addr.NodeAt(i)
	pos := func() geo.Point { return m.pos[i] }
	m.scan.Attach(id, pos, func(f Frame) {
		m.scanLog = append(m.scanLog, fmt.Sprintf("%d<-%d/%d", i, f.From.Index(), len(f.Payload)))
	})
	m.grid.Attach(id, pos, func(f Frame) {
		m.gridLog = append(m.gridLog, fmt.Sprintf("%d<-%d/%d", i, f.From.Index(), len(f.Payload)))
	})
}

// advance moves both virtual clocks forward together.
func (m *mirror) advance(d time.Duration) {
	m.scanS.RunUntil(m.scanS.Now() + d)
	m.gridS.RunUntil(m.gridS.Now() + d)
}

// checkNeighbors compares the Neighbors answer for station i.
func (m *mirror) checkNeighbors(i int) {
	m.t.Helper()
	id := addr.NodeAt(i)
	want := m.scan.Neighbors(id)
	got := m.grid.Neighbors(id)
	if len(want) != len(got) {
		m.t.Fatalf("t=%s: Neighbors(%d): grid %v, scan %v", m.scanS.Now(), i, got, want)
	}
	for k := range want {
		if want[k] != got[k] {
			m.t.Fatalf("t=%s: Neighbors(%d) order diverged: grid %v, scan %v", m.scanS.Now(), i, got, want)
		}
	}
}

// broadcast sends the same frame on both mediums, drains delivery, and
// compares delivery logs and counters.
func (m *mirror) broadcast(i, payloadLen int) {
	m.t.Helper()
	id := addr.NodeAt(i)
	payload := make([]byte, payloadLen)
	m.scan.Send(id, addr.Broadcast, payload)
	m.grid.Send(id, addr.Broadcast, payload)
	m.advance(2 * time.Millisecond) // past PropDelay
	if len(m.scanLog) != len(m.gridLog) {
		m.t.Fatalf("t=%s: broadcast from %d: %d scan deliveries, %d grid deliveries",
			m.scanS.Now(), i, len(m.scanLog), len(m.gridLog))
	}
	for k := range m.scanLog {
		if m.scanLog[k] != m.gridLog[k] {
			m.t.Fatalf("t=%s: delivery %d diverged: scan %q, grid %q",
				m.scanS.Now(), k, m.scanLog[k], m.gridLog[k])
		}
	}
	if m.scan.Stats() != m.grid.Stats() {
		m.t.Fatalf("t=%s: counters diverged:\nscan %+v\ngrid %+v", m.scanS.Now(), m.scan.Stats(), m.grid.Stats())
	}
}

// equivalenceProps is the propagation matrix the campaign sweeps.
func equivalenceProps() []Propagation {
	return []Propagation{
		UnitDisk{Range: 250},
		UnitDisk{Range: 80},
		LossyDisk{Range: 200, FadeRange: 320, Loss: 0.3},
		LossyDisk{Range: 150, Loss: 0.15}, // no fade zone
	}
}

// TestGridScanEquivalence is the grid's headline property test: randomized
// placements, mobility steps, power cycling and re-attachment across
// every propagation model, with 1000+ broadcast/neighbor comparisons.
func TestGridScanEquivalence(t *testing.T) {
	const (
		runsPerConfig = 4
		stepsPerRun   = 25
	)
	cases := 0
	for pi, prop := range equivalenceProps() {
		for _, maxSpeed := range []float64{0, 5, 40} {
			for run := 0; run < runsPerConfig; run++ {
				seed := int64(1000*pi + 100*int(maxSpeed) + run + 1)
				rng := rand.New(rand.NewSource(seed)) //nolint:gosec // test
				n := 10 + rng.Intn(90)
				arena := geo.Arena(800+rng.Float64()*800, 800+rng.Float64()*800)
				m := newMirror(t, seed, n, prop, maxSpeed, arena, rng)
				for step := 0; step < stepsPerRun; step++ {
					// Advance time and move stations within the speed bound.
					dt := time.Duration(rng.Intn(900)+100) * time.Millisecond
					m.advance(dt)
					if maxSpeed > 0 {
						for i := 1; i <= n; i++ {
							if rng.Intn(3) == 0 {
								continue // some stations idle this step
							}
							step := geo.Heading(rng.Float64() * 2 * 3.141592653589793).
								Scale(rng.Float64() * maxSpeed * dt.Seconds())
							m.pos[i] = arena.Clamp(m.pos[i].Add(step))
						}
					}
					// Churn: power cycling and occasional re-attachment.
					if rng.Intn(4) == 0 {
						i := 1 + rng.Intn(n)
						down := rng.Intn(2) == 0
						m.scan.SetDown(addr.NodeAt(i), down)
						m.grid.SetDown(addr.NodeAt(i), down)
					}
					if rng.Intn(10) == 0 {
						i := 1 + rng.Intn(n)
						m.pos[i] = arena.RandPoint(rng) // teleport is fine at attach time
						m.attach(i)
					}
					m.checkNeighbors(1 + rng.Intn(n))
					m.broadcast(1+rng.Intn(n), 1+rng.Intn(64))
					cases += 2
				}
			}
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d randomized cases — the acceptance floor is 1000", cases)
	}
}

// TestGridScanEquivalenceBoundaries pins the exact-boundary cases the
// random campaign may miss: stations precisely at propagation range and
// precisely on grid cell corners, including negative coordinates.
func TestGridScanEquivalenceBoundaries(t *testing.T) {
	cfg := Config{Prop: UnitDisk{Range: 100}, PropDelay: time.Millisecond} // cell side = 100 exactly
	scanS, gridS := sim.New(7), sim.New(7)
	scan, grid := newScanMedium(scanS, cfg), NewMedium(gridS, cfg)

	pts := []geo.Point{
		geo.Pt(0, 0),       // cell corner
		geo.Pt(100, 0),     // exactly at range from 1, on a cell boundary
		geo.Pt(200, 0),     // exactly at range from 2, out of range of 1
		geo.Pt(-100, 0),    // negative coordinates, exactly at range from 1
		geo.Pt(100, 100),   // cell corner, sqrt(2)·100 from 1 (out of range)
		geo.Pt(99.999, 0),  // just inside
		geo.Pt(100.001, 0), // just outside
	}
	for i, p := range pts {
		p := p
		id := addr.NodeAt(i + 1)
		scan.Attach(id, func() geo.Point { return p }, func(Frame) {})
		grid.Attach(id, func() geo.Point { return p }, func(Frame) {})
	}
	for i := 1; i <= len(pts); i++ {
		id := addr.NodeAt(i)
		want := scan.Neighbors(id)
		got := grid.Neighbors(id)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("Neighbors(%d): grid %v, scan %v", i, got, want)
		}
	}
	// A station exactly at range must receive the broadcast (d <= Range).
	scan.Send(addr.NodeAt(1), addr.Broadcast, []byte("x"))
	grid.Send(addr.NodeAt(1), addr.Broadcast, []byte("x"))
	scanS.Run()
	gridS.Run()
	if scan.Stats() != grid.Stats() {
		t.Fatalf("boundary counters diverged:\nscan %+v\ngrid %+v", scan.Stats(), grid.Stats())
	}
	if scan.Stats().FramesDelivered != 3 { // nodes at ±100 and 99.999
		t.Fatalf("FramesDelivered = %d, want 3 (range boundary is inclusive)", scan.Stats().FramesDelivered)
	}
}
