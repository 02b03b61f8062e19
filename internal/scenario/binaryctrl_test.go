package scenario

import (
	"context"
	"testing"
)

// TestBinaryCtrlDetects reruns the logforger preset — the scenario that
// exercises every control-plane payload: routed verification requests
// and proof-carrying replies plus flooded tree-head gossip — with the
// binary envelope codec and demands the same qualitative outcome as the
// JSON run: the log forger caught by the evidence plane and the phantom
// spoofer convicted. Timing-sensitive byte counts may differ (binary
// frames are smaller, so transmission delays shift), which is exactly
// why this asserts detection semantics rather than the golden digest.
func TestBinaryCtrlDetects(t *testing.T) {
	spec, ok := Get("logforger")
	if !ok {
		t.Fatal("logforger preset missing")
	}
	spec.BinaryCtrl = true
	r, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ctrl.Delivered == 0 {
		t.Fatal("no control messages delivered under the binary codec")
	}
	for _, s := range r.Suspects {
		if s.ConvictedAt < 0 || s.FalsePositive {
			t.Errorf("suspect %d (%s) not convicted cleanly under binary ctrl: %+v",
				s.Node, s.Kind, s)
		}
	}
}
