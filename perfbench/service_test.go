package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock is a generator clock that only moves when told to.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// TestGeneratorDueTime drives one worker on a fake clock at a 10ms
// interval. When each submission takes 25ms the generator falls behind:
// slot i is sent 15ms*i late and done 15ms*i+25ms after it was due, so
// the stall shows in every later slot. At 5ms per submission it keeps
// up.
func TestGeneratorDueTime(t *testing.T) {
	for _, c := range []struct {
		service      time.Duration
		lag, latency func(i int) time.Duration
	}{
		{25 * time.Millisecond,
			func(i int) time.Duration { return time.Duration(15*i) * time.Millisecond },
			func(i int) time.Duration { return time.Duration(15*i+25) * time.Millisecond }},
		{5 * time.Millisecond,
			func(int) time.Duration { return 0 },
			func(int) time.Duration { return 5 * time.Millisecond }},
	} {
		start := time.Unix(1000, 0)
		clk := &fakeClock{now: start}
		sch := &schedule{start: start, end: start.Add(100 * time.Millisecond), interval: 10 * time.Millisecond}
		slots := generate(clk, sch, 1, func(i int, due time.Time) (time.Time, error) {
			return clk.advance(c.service), nil
		})
		if len(slots) != 10 {
			t.Fatalf("service %s: %d slots, want 10", c.service, len(slots))
		}
		for i, s := range slots {
			if s.index != i || !s.due.Equal(start.Add(time.Duration(i)*10*time.Millisecond)) {
				t.Errorf("slot %d: index %d due %s", i, s.index, s.due.Sub(start))
			}
			if s.lag != c.lag(i) || s.latency() != c.latency(i) {
				t.Errorf("service %s slot %d: lag %s latency %s, want %s and %s",
					c.service, i, s.lag, s.latency(), c.lag(i), c.latency(i))
			}
		}
	}
}

func TestServicePasses(t *testing.T) {
	start := time.Unix(1000, 0)
	var p servicePhase
	for i := 0; i < 2*serviceCycle+3; i++ {
		due := start.Add(time.Duration(i) * 25 * time.Millisecond)
		p.slots = append(p.slots, slot{index: i, due: due, done: due.Add(10 * time.Millisecond)})
	}
	got := p.passes()
	want := (serviceCycle * 10 * time.Millisecond).Seconds()
	if len(got) != 2 || math.Abs(got[0]-want) > 1e-9 || math.Abs(got[1]-want) > 1e-9 {
		t.Errorf("passes = %v, want two complete cycles of %v s", got, want)
	}
	p.slots[3].err = errTest
	if got := p.passes(); got[0] < campaignLimit.Seconds() {
		t.Errorf("a cycle with a failed campaign took %v s, want at least the limit", got[0])
	}
}

type testError string

func (e testError) Error() string { return string(e) }

const errTest = testError("refused")
