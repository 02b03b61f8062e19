package wire

import (
	"testing"
	"time"

	"repro/internal/addr"
)

// FuzzDecodePacket: the codec must never panic and must stay consistent —
// anything it accepts must re-encode and re-decode to the same bytes.
// The decoder is attack surface: §II-B's active-forge attacks deliver
// adversarial packets to every node.
func FuzzDecodePacket(f *testing.F) {
	seeds := [][]byte{
		{},
		{0, 0},
		{0, 4, 0, 1},
		(&Packet{Seq: 1, Messages: []Message{{
			VTime: 2 * time.Second, Originator: addr.NodeAt(1), TTL: 1, Seq: 1,
			Body: &Hello{HTime: 2 * time.Second, Will: WillDefault, Links: []LinkBlock{{
				Code:      MakeLinkCode(NeighSym, LinkSym),
				Neighbors: []addr.Node{addr.NodeAt(2)},
			}}},
		}}}).Encode(),
		(&Packet{Seq: 2, Messages: []Message{{
			VTime: 15 * time.Second, Originator: addr.NodeAt(3), TTL: 255, Seq: 9,
			Body: &TC{ANSN: 7, Advertised: []addr.Node{addr.NodeAt(1), addr.NodeAt(2)}},
		}}}).Encode(),
		// The bytes a MID (interface 10.0.0.200) and an HNA (10.0.0.0/8)
		// message encode to; both decode as RawBody.
		(&Packet{Seq: 3, Messages: []Message{{
			VTime: 15 * time.Second, Originator: addr.NodeAt(3), TTL: 255, Seq: 10,
			Body: &RawBody{Type: MsgMID, Data: []byte{10, 0, 0, 200}},
		}, {
			VTime: 15 * time.Second, Originator: addr.NodeAt(3), TTL: 255, Seq: 11,
			Body: &RawBody{Type: MsgHNA, Data: []byte{10, 0, 0, 0, 255, 0, 0, 0}},
		}}}).Encode(),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacket(data)
		if err != nil {
			return
		}
		re := p.Encode()
		q, err := DecodePacket(re)
		if err != nil {
			t.Fatalf("accepted packet does not re-decode: %v", err)
		}
		if len(q.Messages) != len(p.Messages) || q.Seq != p.Seq {
			t.Fatalf("re-decode changed structure: %d/%d messages", len(q.Messages), len(p.Messages))
		}
		// Storage reuse is unobservable: decoding the same bytes twice
		// through one Decoder (the second pass reuses the first pass's
		// storage) must reproduce a fresh decode byte for byte.
		var dec Decoder
		for i := 0; i < 2; i++ {
			ap, err := dec.Decode(data)
			if err != nil {
				t.Fatalf("Decoder pass %d rejected accepted packet: %v", i, err)
			}
			if got := ap.Encode(); string(got) != string(re) {
				t.Fatalf("Decoder pass %d re-encodes differently:\n%x\n%x", i, got, re)
			}
		}
	})
}
