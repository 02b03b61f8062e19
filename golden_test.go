package repro

// The golden regression corpus: every packet-kind scenario preset is run
// and its canonical metrics digest compared byte-for-byte against the
// checked-in file under testdata/golden/. The matrix runs twice — on a
// single worker and on eight — and the two passes must agree exactly,
// which pins the determinism contract of the parallel engine alongside
// the scenario outcomes themselves.
//
// Regenerate after an intentional behavior change with
//
//	go test -run TestGoldenCorpus -update-golden .
//
// (or `make golden-update`) and review the diff like any other code.

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/scenario"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from this run")

const goldenDir = "testdata/golden"

// digests runs the specs at the given worker count and returns their
// digests.
func digests(t *testing.T, specs []scenario.Spec, workers int) []scenario.Digest {
	t.Helper()
	res, err := experiment.NewRunner(0, workers).Scenarios(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]scenario.Digest, len(res))
	for i, r := range res {
		out[i] = r.Digest()
	}
	return out
}

// verifyGoldenMatrix runs specs at workers 8 and 1, then compares — or
// with -update-golden, records — each digest against its testdata/golden
// file. updateCmd names the make target to suggest in failure messages.
// Both golden corpus tests share this loop so the workflow cannot drift
// between them. Digests recorded before the grid became the only radio
// medium were recorded or cross-checked under a linear scan, so for
// those files a match also shows the grid delivers what the scan did. A
// re-recorded digest is grid-only; grid ≡ scan is then checked only by
// the internal/radio equivalence harness (DESIGN.md §2.4).
func verifyGoldenMatrix(t *testing.T, specs []scenario.Spec, updateCmd string) {
	t.Helper()
	parallel := digests(t, specs, 8)
	serial := digests(t, specs, 1)

	for i, spec := range specs {
		i, spec := i, spec
		t.Run(spec.Name, func(t *testing.T) {
			if parallel[i] != serial[i] {
				t.Fatalf("digest differs between 8 workers and 1 worker:\n--- workers=8\n%s\n--- workers=1\n%s",
					parallel[i].Canonical, serial[i].Canonical)
			}
			got := parallel[i].GoldenFile()
			path := filepath.Join(goldenDir, spec.Name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil { //nolint:gosec // test data
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden file for preset %q (run `%s`): %v", spec.Name, updateCmd, err)
			}
			if got != string(want) {
				t.Errorf("digest drifted from %s — if intentional, run `%s` and commit the diff\n--- got\n%s--- want\n%s",
					path, updateCmd, got, want)
			}
		})
	}
}

func TestGoldenCorpus(t *testing.T) {
	specs := scenario.PacketPresets()
	if len(specs) < 6 {
		t.Fatalf("only %d packet presets — the corpus shrank", len(specs))
	}
	verifyGoldenMatrix(t, specs, "make golden-update")

	// No stale files: every golden file must correspond to a live preset.
	if !*updateGolden {
		entries, err := os.ReadDir(goldenDir)
		if err != nil {
			t.Fatalf("read %s: %v", goldenDir, err)
		}
		live := map[string]bool{}
		for _, s := range specs {
			live[s.Name+".golden"] = true
		}
		// Large-N goldens belong to the scale corpus (TestGoldenScale).
		for _, s := range scenario.ScalePresets() {
			live[s.Name+".golden"] = true
		}
		for _, e := range entries {
			if !live[e.Name()] {
				t.Errorf("stale golden file %s has no matching preset", e.Name())
			}
		}
	}
}
