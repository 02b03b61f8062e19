package scenario

import (
	"context"
	"testing"
	"time"

	"repro/internal/trust"
)

// TestAttackVariantCoverage is the table-driven regression over the whole
// attack suite: every preset runs once and its detection / false-positive
// outcome is checked against the trust thresholds of internal/trust
// (default trust 0.4, decision threshold γ = 0.6). The quantitative
// digests are pinned separately by the golden corpus; this test pins the
// qualitative claims EXPERIMENTS.md makes about each adversary.
func TestAttackVariantCoverage(t *testing.T) {
	params := trust.DefaultParams()

	alertCount := func(r *Result, rule string) int {
		for _, a := range r.Alerts {
			if a.Rule == rule {
				return a.Count
			}
		}
		return 0
	}
	counter := func(s Suspect, name string) uint64 {
		for _, c := range s.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return 0
	}

	cases := []struct {
		preset string
		check  func(t *testing.T, r *Result)
	}{
		{"baseline", func(t *testing.T, r *Result) {
			// Honest network: nothing to convict, and the detector must
			// not manufacture suspects out of protocol churn.
			if len(r.Suspects) != 0 {
				t.Errorf("baseline has suspects: %+v", r.Suspects)
			}
			if r.Frames.FramesSent == 0 || r.LogRecords == 0 {
				t.Error("baseline produced no traffic or logs")
			}
		}},
		{"linkspoof", func(t *testing.T, r *Result) {
			s := r.Suspects[0]
			if s.ConvictedAt < 0 || s.FalsePositive {
				t.Fatalf("phantom spoofer not convicted cleanly: %+v", s)
			}
			if s.ConvictedAt < s.AttackAt {
				t.Errorf("conviction at %s precedes attack at %s", s.ConvictedAt, s.AttackAt)
			}
			// A convicted intruder must sit far below both the default
			// trust and the decision threshold.
			if s.FinalTrust >= params.Default || s.FinalTrust >= params.Gamma {
				t.Errorf("convicted spoofer trust %.3f not below default %.1f / γ %.1f",
					s.FinalTrust, params.Default, params.Gamma)
			}
			if counter(s, "spoofed") == 0 {
				t.Error("spoofer forged no HELLOs")
			}
		}},
		{"linkspoof-mobile", func(t *testing.T, r *Result) {
			s := r.Suspects[0]
			if s.ConvictedAt < 0 || s.FalsePositive {
				t.Fatalf("mobile spoofer not convicted cleanly: %+v", s)
			}
			if s.FinalTrust >= params.Default {
				t.Errorf("mobile spoofer trust %.3f not below default", s.FinalTrust)
			}
		}},
		{"blackhole", func(t *testing.T, r *Result) {
			s := r.Suspects[0]
			if counter(s, "dropped") == 0 {
				t.Error("black hole dropped nothing")
			}
			if alertCount(r, "relay-drop") == 0 {
				t.Error("relay-drop signature never fired")
			}
			// The drop attack is punished through trust, far below default.
			if got, want := params.Default-s.FinalTrust, 0.3; got < want {
				t.Errorf("trust damage %.3f < %.1f", got, want)
			}
		}},
		{"grayhole", func(t *testing.T, r *Result) {
			s := r.Suspects[0]
			if counter(s, "dropped") == 0 || counter(s, "relayed") == 0 {
				t.Errorf("gray hole did not split traffic: %+v", s.Counters)
			}
			if alertCount(r, "relay-drop") == 0 {
				t.Error("relay-drop signature never fired on the gray hole")
			}
			if s.FinalTrust >= params.Default {
				t.Errorf("gray hole trust %.3f not below default %.1f", s.FinalTrust, params.Default)
			}
		}},
		{"wormhole", func(t *testing.T, r *Result) {
			if len(r.Suspects) != 2 {
				t.Fatalf("wormhole suspects = %d", len(r.Suspects))
			}
			if counter(r.Suspects[0], "tunneled") == 0 {
				t.Error("tunnel relayed nothing")
			}
			// The fabricated topology must churn the victim's MPR set.
			if alertCount(r, "mpr-added")+alertCount(r, "mpr-replaced") == 0 {
				t.Error("wormhole caused no MPR churn alerts")
			}
			// The paper's link-verification protocol has no wormhole
			// signature: the tunneled links verify as real (both endpoints
			// honestly believe them). Document that limitation here.
			for _, s := range r.Suspects {
				if s.ConvictedAt >= 0 && !s.FalsePositive {
					t.Errorf("wormhole endpoint %d convicted — detector grew a wormhole signature; update this test and EXPERIMENTS.md", s.Node)
				}
			}
		}},
		{"colluding", func(t *testing.T, r *Result) {
			if len(r.Suspects) != 2 {
				t.Fatalf("colluding suspects = %d", len(r.Suspects))
			}
			lead := r.Suspects[0]
			if counter(lead, "spoofed") == 0 {
				t.Error("colluders forged no HELLOs")
			}
			// Collusion defeats conviction (the claimed link poisons the
			// route to its own verifier — E3, "not verified"), but the
			// investigation's negative rounds still cost the lead spoofer
			// trust.
			if lead.ConvictedAt >= 0 {
				t.Errorf("colluding spoofer convicted at %s — collusion no longer defeats verification; update EXPERIMENTS.md", lead.ConvictedAt)
			}
			if lead.FinalTrust >= params.Default {
				t.Errorf("lead colluder trust %.3f not below default %.1f", lead.FinalTrust, params.Default)
			}
		}},
		{"storm", func(t *testing.T, r *Result) {
			s := r.Suspects[0]
			if counter(s, "sent") == 0 {
				t.Error("storm emitted nothing")
			}
			if alertCount(r, "broadcast-storm") == 0 {
				t.Error("broadcast-storm signature never fired")
			}
		}},
		{"baselines-x5", func(t *testing.T, r *Result) {
			if alertCount(r, "broadcast-storm") == 0 {
				t.Error("X5 storm not flagged")
			}
			if alertCount(r, "replay-stale") == 0 {
				t.Error("X5 replay not flagged")
			}
			for _, s := range r.Suspects {
				if s.Kind == "blackhole" && params.Default-s.FinalTrust < 0.3 {
					t.Errorf("X5 black hole trust damage %.3f too small", params.Default-s.FinalTrust)
				}
			}
		}},
		{"logforger", func(t *testing.T, r *Result) {
			if alertCount(r, "evidence-forged") == 0 {
				t.Error("forged evidence never flagged")
			}
			for _, s := range r.Suspects {
				switch s.Kind {
				case "logforge":
					if s.ConvictedAt < 0 || s.FalsePositive {
						t.Fatalf("log forger not convicted cleanly: %+v", s)
					}
					// The gossip catches the rewrite within a couple of
					// flood periods of the first forged head.
					if s.ConvictedAt-s.AttackAt > 15*time.Second {
						t.Errorf("forger caught only %s after activation", s.ConvictedAt-s.AttackAt)
					}
					if counter(s, "rewrites") == 0 || counter(s, "fabricated") == 0 {
						t.Error("forger never rewrote its history")
					}
					if s.FinalTrust >= params.Default {
						t.Errorf("forger trust %.3f not below default", s.FinalTrust)
					}
				case "linkspoof":
					// The alibi must not save the spoofer: with the forger
					// caught and excluded, the phantom conviction goes
					// through as in the plain linkspoof preset.
					if s.ConvictedAt < 0 || s.FalsePositive {
						t.Fatalf("alibied spoofer not convicted cleanly: %+v", s)
					}
				}
			}
		}},
		{"logforger-colluding", func(t *testing.T, r *Result) {
			if got := alertCount(r, "evidence-forged"); got != 2 {
				t.Errorf("evidence-forged alerts = %d, want one per forger", got)
			}
			for _, s := range r.Suspects {
				if s.Kind != "logforge" {
					continue
				}
				if s.ConvictedAt < 0 || s.FalsePositive {
					t.Fatalf("coordinated forger not convicted cleanly: %+v", s)
				}
			}
		}},
	}

	for _, c := range cases {
		c := c
		t.Run(c.preset, func(t *testing.T) {
			t.Parallel()
			spec, ok := Get(c.preset)
			if !ok {
				t.Fatalf("preset %q missing", c.preset)
			}
			r, err := RunContext(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, r)
		})
	}
}
