// Package mobility provides node placement and movement models for the
// simulated MANET.
//
// A Model maps virtual time to a position. Models that involve randomness
// (random waypoint, random walk) lazily extend an internal list of movement
// legs from their own seeded random source, so positions can be queried at
// arbitrary (not necessarily monotone) times and a run remains fully
// deterministic for a given seed.
package mobility

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/geo"
)

// Model yields a node's position at a virtual time.
type Model interface {
	// Position returns the node's location at virtual time t >= 0.
	Position(t time.Duration) geo.Point
}

// Static is a model that never moves.
type Static struct {
	P geo.Point
}

var _ Model = Static{}

// Position implements Model.
func (s Static) Position(time.Duration) geo.Point { return s.P }

// Linear moves at a constant velocity from Start, after an optional
// delay — the deterministic mobility used by topology-change tests.
type Linear struct {
	Start    geo.Point
	Velocity geo.Vec       // meters per second
	Delay    time.Duration // stand still this long first
}

var _ Model = Linear{}

// Position implements Model.
func (l Linear) Position(t time.Duration) geo.Point {
	if t <= l.Delay {
		return l.Start
	}
	return l.Start.Add(l.Velocity.Scale((t - l.Delay).Seconds()))
}

// leg is one constant-velocity segment of a trajectory. A pause is a leg
// with from == to.
type leg struct {
	start, end time.Duration
	from, to   geo.Point
}

func (l leg) at(t time.Duration) geo.Point {
	if l.end <= l.start || t <= l.start {
		return l.from
	}
	if t >= l.end {
		return l.to
	}
	f := float64(t-l.start) / float64(l.end-l.start)
	return l.from.Lerp(l.to, f)
}

// after returns t+d, saturating at the largest Duration so an overlong
// leg ends "never" instead of wrapping into the past.
func after(t, d time.Duration) time.Duration {
	if d > math.MaxInt64-t {
		return math.MaxInt64
	}
	return t + d
}

// legTrack lazily grows a list of legs to cover queried times.
type legTrack struct {
	legs []leg
	next func(last leg) leg
}

func (lt *legTrack) position(t time.Duration) geo.Point {
	if t < 0 {
		t = 0
	}
	for lt.legs[len(lt.legs)-1].end < t {
		lt.legs = append(lt.legs, lt.next(lt.legs[len(lt.legs)-1]))
	}
	i := sort.Search(len(lt.legs), func(i int) bool { return lt.legs[i].end >= t })
	return lt.legs[i].at(t)
}

// RandomWaypoint implements the classic random-waypoint model: pick a
// uniform destination in the arena, travel to it at a uniform speed in
// [MinSpeed, MaxSpeed], pause for Pause, repeat.
type RandomWaypoint struct {
	track legTrack
}

var _ Model = (*RandomWaypoint)(nil)

// WaypointConfig parameterizes NewRandomWaypoint.
type WaypointConfig struct {
	Arena    geo.Rect
	Start    geo.Point     // initial position; must be inside Arena
	MinSpeed float64       // m/s, > 0
	MaxSpeed float64       // m/s, >= MinSpeed
	Pause    time.Duration // dwell time at each waypoint
}

// NewRandomWaypoint builds a random-waypoint trajectory from its own RNG
// seeded with seed.
func NewRandomWaypoint(seed int64, cfg WaypointConfig) *RandomWaypoint {
	rng := rand.New(rand.NewSource(seed)) //nolint:gosec // simulation
	if cfg.MinSpeed <= 0 {
		cfg.MinSpeed = 0.1
	}
	if cfg.MaxSpeed < cfg.MinSpeed {
		cfg.MaxSpeed = cfg.MinSpeed
	}
	m := &RandomWaypoint{}
	m.track.legs = []leg{{start: 0, end: cfg.Pause, from: cfg.Start, to: cfg.Start}}
	m.track.next = func(last leg) leg {
		if last.from == last.to { // just finished a pause: travel
			dest := cfg.Arena.RandPoint(rng)
			speed := cfg.MinSpeed + rng.Float64()*(cfg.MaxSpeed-cfg.MinSpeed)
			dist := last.to.Dist(dest)
			ns := float64(time.Second) * dist / speed
			// A trip that outlasts time.Duration goes as far as fits at
			// this speed instead of wrapping its end into the past.
			if room := math.MaxInt64 - last.end; ns >= float64(room) {
				return leg{start: last.end, end: math.MaxInt64, from: last.to, to: last.to.Lerp(dest, float64(room)/ns)}
			}
			dur := time.Duration(ns)
			if dur <= 0 {
				dur = time.Millisecond
			}
			return leg{start: last.end, end: last.end + dur, from: last.to, to: dest}
		}
		// Just arrived: pause (or an instantaneous pause if Pause == 0).
		end := after(last.end, cfg.Pause)
		if cfg.Pause <= 0 {
			end = last.end + time.Millisecond
		}
		return leg{start: last.end, end: end, from: last.to, to: last.to}
	}
	return m
}

// Position implements Model.
func (m *RandomWaypoint) Position(t time.Duration) geo.Point { return m.track.position(t) }

// RandomWalk changes to a fresh uniform heading every Epoch and travels at
// constant Speed, reflecting off the arena border.
type RandomWalk struct {
	track legTrack
}

var _ Model = (*RandomWalk)(nil)

// WalkConfig parameterizes NewRandomWalk.
type WalkConfig struct {
	Arena geo.Rect
	Start geo.Point
	Speed float64       // m/s
	Epoch time.Duration // duration of each straight segment
}

// NewRandomWalk builds a random-walk trajectory from its own RNG seeded
// with seed.
func NewRandomWalk(seed int64, cfg WalkConfig) *RandomWalk {
	rng := rand.New(rand.NewSource(seed)) //nolint:gosec // simulation
	if cfg.Epoch <= 0 {
		cfg.Epoch = 10 * time.Second
	}
	if cfg.Speed < 0 {
		cfg.Speed = 0
	}
	m := &RandomWalk{}
	m.track.legs = []leg{{start: 0, end: 0, from: cfg.Start, to: cfg.Start}}
	m.track.next = func(last leg) leg {
		dir := geo.Heading(rng.Float64() * 2 * math.Pi)
		d := cfg.Speed * cfg.Epoch.Seconds()
		dest := cfg.Arena.Clamp(last.to.Add(dir.Scale(d)))
		// From a start outside the arena the clamp can land farther than
		// one segment away; walk back in at Speed instead of jumping.
		if gap := last.to.Dist(dest); !cfg.Arena.Contains(last.to) && gap > d {
			dest = last.to.Lerp(dest, d/gap)
		}
		return leg{start: last.end, end: after(last.end, cfg.Epoch), from: last.to, to: dest}
	}
	return m
}

// Position implements Model.
func (m *RandomWalk) Position(t time.Duration) geo.Point { return m.track.position(t) }

// UniformPlacement returns n independent uniform positions in the arena.
func UniformPlacement(rng *rand.Rand, arena geo.Rect, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = arena.RandPoint(rng)
	}
	return pts
}

// GridPlacement lays out n positions on the most-square grid that fits the
// arena, centered in each cell. It is the deterministic topology used by
// integration tests.
func GridPlacement(arena geo.Rect, n int) []geo.Point {
	if n <= 0 {
		return nil
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	cw := arena.Width() / float64(cols)
	ch := arena.Height() / float64(rows)
	pts := make([]geo.Point, 0, n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		pts = append(pts, geo.Pt(
			arena.Min.X+cw*(float64(c)+0.5),
			arena.Min.Y+ch*(float64(r)+0.5),
		))
	}
	return pts
}

// RingPlacement lays out n positions evenly on a circle. Adjacent nodes on
// the ring are each other's nearest neighbors, which gives chain topologies
// with predictable MPR structure.
func RingPlacement(center geo.Point, radius float64, n int) []geo.Point {
	pts := make([]geo.Point, 0, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts = append(pts, center.Add(geo.Heading(a).Scale(radius)))
	}
	return pts
}

// LinePlacement lays out n positions on a horizontal line starting at start
// with the given spacing. Useful for chain/multi-hop topologies.
func LinePlacement(start geo.Point, spacing float64, n int) []geo.Point {
	pts := make([]geo.Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, geo.Pt(start.X+float64(i)*spacing, start.Y))
	}
	return pts
}
