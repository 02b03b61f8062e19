package radio

import (
	"time"

	"repro/internal/addr"
	"repro/internal/geo"
	"repro/internal/sim"
)

// scanMedium is the reference model the grid medium is checked against:
// a linear scan over every attached station in attachment order. It
// shares no bucketing or neighborhood code with Medium and spells out
// the delivery semantics the grid must reproduce exactly:
//
//   - a broadcast visits every other up station in attachment order and
//     draws one loss variate per station with non-zero delivery
//     probability;
//   - every other eligible station is charged a lost frame;
//   - re-attaching an id replaces its position source and handler,
//     clears its down mark and keeps its rank.
//
// Run it on its own scheduler seeded like the grid's: the loss variates
// then come from identical streams, and any divergence in the candidate
// visit order shows up in the delivery log.
type scanMedium struct {
	sched    *sim.Scheduler
	cfg      Config
	stations []*scanStation // attachment order
	stats    Stats
}

type scanStation struct {
	id      addr.Node
	pos     func() geo.Point
	handler Handler
	down    bool
}

// newScanMedium builds a scan over the scheduler; cfg must name Prop and
// a positive PropDelay (the oracle applies no defaults).
func newScanMedium(sched *sim.Scheduler, cfg Config) *scanMedium {
	return &scanMedium{sched: sched, cfg: cfg}
}

func (m *scanMedium) lookup(id addr.Node) *scanStation {
	for _, st := range m.stations {
		if st.id == id {
			return st
		}
	}
	return nil
}

func (m *scanMedium) Attach(id addr.Node, pos func() geo.Point, handler Handler) {
	st := &scanStation{id: id, pos: pos, handler: handler}
	for i, old := range m.stations {
		if old.id == id {
			m.stations[i] = st
			return
		}
	}
	m.stations = append(m.stations, st)
}

func (m *scanMedium) SetDown(id addr.Node, down bool) {
	if st := m.lookup(id); st != nil {
		st.down = down
	}
}

func (m *scanMedium) Stats() Stats { return m.stats }

func (m *scanMedium) Neighbors(id addr.Node) []addr.Node { return m.NeighborsInto(id, nil) }

func (m *scanMedium) NeighborsInto(id addr.Node, out []addr.Node) []addr.Node {
	self := m.lookup(id)
	if self == nil || self.down {
		return out
	}
	p := self.pos()
	for _, other := range m.stations {
		if other != self && !other.down && m.cfg.Prop.DeliveryProb(p.Dist(other.pos())) > 0 {
			out = append(out, other.id)
		}
	}
	return out
}

func (m *scanMedium) Send(from, to addr.Node, payload []byte) {
	src := m.lookup(from)
	if src == nil || src.down {
		return
	}
	m.stats.FramesSent++
	m.stats.BytesSent += uint64(len(payload))
	delay := m.cfg.PropDelay
	if m.cfg.BitRate > 0 {
		delay += time.Duration(float64(time.Second) * float64(len(payload)*8) / m.cfg.BitRate)
	}
	srcPos := src.pos()
	frame := Frame{From: from, To: to, Payload: payload, Sent: m.sched.Now()}
	for _, dst := range m.stations {
		// A broadcast reaches every other station; a unicast only its
		// addressee, which may be the sender itself.
		eligible := dst != src
		if to != addr.Broadcast {
			eligible = dst.id == to
		}
		if !eligible || dst.down {
			continue
		}
		p := m.cfg.Prop.DeliveryProb(srcPos.Dist(dst.pos()))
		if p <= 0 || m.sched.Rand().Float64() >= p {
			m.stats.FramesLost++
			continue
		}
		m.stats.FramesDelivered++
		m.stats.BytesDelivered += uint64(len(payload))
		m.sched.After(delay, func() {
			if !dst.down && dst.handler != nil {
				dst.handler(frame)
			}
		})
	}
}
