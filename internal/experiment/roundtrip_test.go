package experiment

import (
	"context"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/trust"
)

// TestConfigSpecRoundTrip pins the inverse pair a Config-typed figure
// request depends on: ConfigFromSpec(SpecFromConfig(cfg)) == cfg, so a
// Config routed through the spec-typed Run surface executes the exact
// configuration it was given.
func TestConfigSpecRoundTrip(t *testing.T) {
	lossless := DefaultConfig()
	lossless.NonAnswerProb = 0 // must survive via the explicit -1 convention

	custom := Config{
		Seed: 77, Nodes: 24, Liars: 6, Rounds: 40,
		NonAnswerProb:   0.25,
		InitialTrustMin: 0.2, InitialTrustMax: 0.8,
		Params: trust.DefaultParams(),
	}
	custom.Params.Default = 0.5

	for name, cfg := range map[string]Config{
		"default":  DefaultConfig(),
		"lossless": lossless,
		"custom":   custom,
	} {
		spec := SpecFromConfig(cfg)
		back, err := ConfigFromSpec(spec)
		if err != nil {
			t.Fatalf("%s: ConfigFromSpec(SpecFromConfig(cfg)): %v", name, err)
		}
		if back != cfg {
			t.Errorf("%s: round trip diverged:\n got %+v\nwant %+v", name, back, cfg)
		}
	}
}

// TestTrialSeedContract pins the seed schedule both the engine and the
// campaign service derive run seeds from: trial 0 is the spec seed
// verbatim, later trials are derived, distinct, and stable.
func TestTrialSeedContract(t *testing.T) {
	if got := TrialSeed(42, 0); got != 42 {
		t.Errorf("TrialSeed(42, 0) = %d, want the spec seed", got)
	}
	seen := map[int64]int{42: 0}
	for i := 1; i < 32; i++ {
		s := TrialSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("TrialSeed(42, %d) collides with trial %d", i, prev)
		}
		seen[s] = i
		if again := TrialSeed(42, i); again != s {
			t.Errorf("TrialSeed(42, %d) unstable: %d then %d", i, s, again)
		}
	}
}

// TestFanHonorsCancellation checks the two ctx-taking fans — the
// Figures 1–3 regeneration and the scenario fan — complete under a live
// context and unwind under a canceled one.
func TestFanHonorsCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Liars, cfg.Rounds = 8, 2, 6
	eng := NewRunner(cfg.Seed, 2)
	ctx := context.Background()

	all, err := eng.Figures(ctx, cfg, []int{1, 2})
	if err != nil || all.Fig1 == nil || all.Fig2 == nil || all.Fig3 == nil {
		t.Errorf("Figures incomplete (err %v)", err)
	}
	spec := scenario.Spec{Name: "tiny", Seed: 3, Nodes: 4, Duration: scenario.Dur(5 * time.Second)}
	trials := TrialSpecs(spec, 3)
	res, err := eng.Scenarios(ctx, trials, nil)
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	for i, r := range res {
		if r.Seed != trials[i].Seed {
			t.Errorf("trial %d ran seed %d, want %d", i, r.Seed, trials[i].Seed)
		}
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.Scenarios(canceled, trials, nil); err == nil {
		t.Error("Scenarios ignored a canceled context")
	}
	if _, err := eng.Figures(canceled, cfg, []int{1}); err == nil {
		t.Error("Figures ignored a canceled context")
	}
	if _, err := eng.Scenarios(canceled, []scenario.Spec{FullStackSpec(1, 16, 0, time.Minute, 30*time.Second, "phantom")}, nil); err == nil {
		t.Error("a full-stack run ignored a canceled context")
	}
}
