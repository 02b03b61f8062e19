package mobility

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
)

func TestStatic(t *testing.T) {
	m := Static{P: geo.Pt(5, 7)}
	for _, d := range []time.Duration{0, time.Second, time.Hour} {
		if got := m.Position(d); got != geo.Pt(5, 7) {
			t.Fatalf("Position(%v) = %v", d, got)
		}
	}
}

func TestRandomWaypointStaysInArena(t *testing.T) {
	arena := geo.Arena(500, 500)
	m := NewRandomWaypoint(1, WaypointConfig{
		Arena:    arena,
		Start:    arena.Center(),
		MinSpeed: 1,
		MaxSpeed: 10,
		Pause:    2 * time.Second,
	})
	for s := 0; s <= 3600; s++ {
		p := m.Position(time.Duration(s) * time.Second)
		if !arena.Contains(p) {
			t.Fatalf("left arena at t=%ds: %v", s, p)
		}
	}
}

func TestRandomWaypointStartsAtStart(t *testing.T) {
	start := geo.Pt(100, 200)
	m := NewRandomWaypoint(1, WaypointConfig{
		Arena: geo.Arena(500, 500), Start: start, MinSpeed: 1, MaxSpeed: 5, Pause: time.Second,
	})
	if got := m.Position(0); got != start {
		t.Fatalf("Position(0) = %v, want %v", got, start)
	}
}

func TestRandomWaypointSpeedBounded(t *testing.T) {
	const maxSpeed = 10.0
	m := NewRandomWaypoint(3, WaypointConfig{
		Arena: geo.Arena(1000, 1000), Start: geo.Pt(500, 500),
		MinSpeed: 2, MaxSpeed: maxSpeed, Pause: 0,
	})
	prev := m.Position(0)
	for s := 1; s <= 1800; s++ {
		cur := m.Position(time.Duration(s) * time.Second)
		if v := cur.Dist(prev); v > maxSpeed+1e-6 {
			t.Fatalf("speed %v m/s exceeds max %v at t=%ds", v, maxSpeed, s)
		}
		prev = cur
	}
}

func TestRandomWaypointDeterministicAndRandomAccess(t *testing.T) {
	cfg := WaypointConfig{
		Arena: geo.Arena(300, 300), Start: geo.Pt(0, 0),
		MinSpeed: 1, MaxSpeed: 8, Pause: time.Second,
	}
	a := NewRandomWaypoint(42, cfg)
	b := NewRandomWaypoint(42, cfg)

	// Query a forwards and b backwards; identical seeds must agree at every t.
	var fw []geo.Point
	for s := 0; s <= 600; s += 7 {
		fw = append(fw, a.Position(time.Duration(s)*time.Second))
	}
	i := len(fw) - 1
	for s := 595; s >= 0; s -= 7 {
		_ = s
		i--
	}
	for s := 0; s <= 600; s += 7 {
		want := fw[s/7]
		if got := b.Position(time.Duration(s) * time.Second); got != want {
			t.Fatalf("divergence at t=%ds: %v vs %v", s, got, want)
		}
	}
	// Non-monotone access must agree with earlier answers.
	if got := a.Position(70 * time.Second); got != fw[10] {
		t.Fatalf("re-query differs: %v vs %v", got, fw[10])
	}
}

func TestRandomWaypointActuallyMoves(t *testing.T) {
	m := NewRandomWaypoint(5, WaypointConfig{
		Arena: geo.Arena(500, 500), Start: geo.Pt(250, 250),
		MinSpeed: 5, MaxSpeed: 5, Pause: 0,
	})
	start := m.Position(0)
	moved := false
	for s := 1; s < 120; s++ {
		if m.Position(time.Duration(s)*time.Second).Dist(start) > 10 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("node never moved")
	}
}

func TestRandomWalkStaysInArenaAndMoves(t *testing.T) {
	arena := geo.Arena(200, 200)
	m := NewRandomWalk(9, WalkConfig{Arena: arena, Start: arena.Center(), Speed: 3, Epoch: 5 * time.Second})
	start := m.Position(0)
	moved := false
	for s := 0; s <= 600; s++ {
		p := m.Position(time.Duration(s) * time.Second)
		if !arena.Contains(p) {
			t.Fatalf("left arena at t=%ds: %v", s, p)
		}
		if p.Dist(start) > 5 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("walker never moved")
	}
}

func TestRandomWalkFromOutsideArenaKeepsSpeed(t *testing.T) {
	// A start outside the arena walks back in at Speed; it never jumps to
	// the border (the radio grid's MaxSpeed contract rests on this).
	const speed = 3.0
	arena := geo.Arena(200, 200)
	m := NewRandomWalk(9, WalkConfig{Arena: arena, Start: geo.Pt(1000, -400), Speed: speed, Epoch: 5 * time.Second})
	prev := m.Position(0)
	for s := 1; s <= 600; s++ {
		cur := m.Position(time.Duration(s) * time.Second)
		if v := cur.Dist(prev); v > speed+1e-6 {
			t.Fatalf("speed %v m/s exceeds %v at t=%ds", v, speed, s)
		}
		prev = cur
	}
	if !arena.Contains(prev) {
		t.Fatalf("walker never re-entered the arena: %v", prev)
	}
}

func TestRandomWalkInArenaIsPlainClamp(t *testing.T) {
	// Inside the arena a segment ends exactly at the clamped heading
	// step: the walk-back-in correction never touches it.
	const seed, speed, epoch = 4, 7.0, 3 * time.Second
	arena := geo.Arena(300, 300)
	m := NewRandomWalk(seed, WalkConfig{Arena: arena, Start: geo.Pt(150, 150), Speed: speed, Epoch: epoch})
	m.Position(10 * time.Minute)
	rng := rand.New(rand.NewSource(seed))
	for _, l := range m.track.legs[1:] {
		dir := geo.Heading(rng.Float64() * 2 * math.Pi)
		if want := arena.Clamp(l.from.Add(dir.Scale(speed * epoch.Seconds()))); l.to != want {
			t.Fatalf("leg at %v ends at %v, want %v", l.start, l.to, want)
		}
	}
}

func TestOverlongLegsKeepSpeed(t *testing.T) {
	// A trip longer than time.Duration can hold, and a pause or epoch
	// that would overflow a leg's end, saturate instead of wrapping:
	// the node never moves faster than its speed.
	const slow, long = 1e-6, math.MaxInt64/2 + 1
	small := geo.Arena(100, 100)
	for _, c := range []struct {
		name  string
		m     Model
		limit float64
	}{
		{"trip", NewRandomWaypoint(1, WaypointConfig{Arena: geo.Arena(1e6, 1e6), MinSpeed: slow, MaxSpeed: slow}), slow},
		{"pause", NewRandomWaypoint(2, WaypointConfig{Arena: small, MinSpeed: 2, MaxSpeed: 2, Pause: long}), 2},
		{"epoch", NewRandomWalk(3, WalkConfig{Arena: small, Start: geo.Pt(50, 50), Speed: 2, Epoch: long}), 2},
	} {
		var prevAt time.Duration
		prev := c.m.Position(0)
		for _, at := range []time.Duration{time.Hour, 1 << 40, 1 << 61, 1 << 62, 3 << 61, math.MaxInt64} {
			cur := c.m.Position(at)
			if v := cur.Dist(prev) / (at - prevAt).Seconds(); v > c.limit*(1+1e-9) {
				t.Errorf("%s: %v m/s between %v and %v, above %v", c.name, v, prevAt, at, c.limit)
			}
			prev, prevAt = cur, at
		}
	}
}

func TestUniformPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	arena := geo.Arena(100, 100)
	pts := UniformPlacement(rng, arena, 50)
	if len(pts) != 50 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !arena.Contains(p) {
			t.Fatalf("point outside arena: %v", p)
		}
	}
}

func TestGridPlacement(t *testing.T) {
	arena := geo.Arena(100, 100)
	pts := GridPlacement(arena, 16)
	if len(pts) != 16 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !arena.Contains(p) {
			t.Fatalf("point outside arena: %v", p)
		}
	}
	// 16 points in a 100x100 arena form a 4x4 grid with 25m pitch.
	if d := pts[0].Dist(pts[1]); math.Abs(d-25) > 1e-9 {
		t.Errorf("horizontal pitch = %v, want 25", d)
	}
	if d := pts[0].Dist(pts[4]); math.Abs(d-25) > 1e-9 {
		t.Errorf("vertical pitch = %v, want 25", d)
	}
	if got := GridPlacement(arena, 0); got != nil {
		t.Errorf("GridPlacement(0) = %v, want nil", got)
	}
}

func TestRingPlacement(t *testing.T) {
	center := geo.Pt(50, 50)
	pts := RingPlacement(center, 30, 8)
	if len(pts) != 8 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if math.Abs(p.Dist(center)-30) > 1e-9 {
			t.Fatalf("point %v not on ring", p)
		}
	}
	// Adjacent gap must be the chord length 2*r*sin(pi/n).
	want := 2 * 30 * math.Sin(math.Pi/8)
	if d := pts[0].Dist(pts[1]); math.Abs(d-want) > 1e-9 {
		t.Errorf("adjacent gap = %v, want %v", d, want)
	}
}

func TestLinePlacement(t *testing.T) {
	pts := LinePlacement(geo.Pt(10, 5), 20, 4)
	want := []geo.Point{geo.Pt(10, 5), geo.Pt(30, 5), geo.Pt(50, 5), geo.Pt(70, 5)}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("pts = %v, want %v", pts, want)
		}
	}
}
