package repro

// The large-N golden corpus: scale presets (200- and 500-node scenarios)
// run at workers 1 and 8, with digests pinned under testdata/golden/ like
// the ordinary corpus. The matrix is
// tens of seconds of simulation — far past the per-PR test budget — so
// the test only runs when REPRO_SCALE=1 (the scale CI job and `make
// scale` set it).
//
// Regenerate after an intentional behavior change with
//
//	REPRO_SCALE=1 go test -run TestGoldenScale -update-golden -count=1 .
//
// (or `make scale-update`).

import (
	"os"
	"testing"

	"repro/internal/scenario"
)

// scaleEnv is the opt-in switch for the large-N matrix.
const scaleEnv = "REPRO_SCALE"

func TestGoldenScale(t *testing.T) {
	if os.Getenv(scaleEnv) == "" {
		t.Skipf("large-N matrix skipped; set %s=1 to run it", scaleEnv)
	}
	specs := scenario.ScalePresets()
	if len(specs) < 4 {
		t.Fatalf("only %d scale presets — the large-N corpus shrank", len(specs))
	}
	verifyGoldenMatrix(t, specs, "make scale-update")
}
