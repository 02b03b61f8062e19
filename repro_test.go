package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/experiment"
)

func TestFacadeFigures(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Rounds = 10

	res, err := Run(context.Background(), experiment.SpecFromConfig(cfg), RunOpts{LiarCounts: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Figures.Fig1.Table.Rows(); rows != 11 {
		t.Errorf("Figure1 rows = %d", rows)
	}
	if rows := res.Figures.Fig2.Table.Rows(); rows != 11 {
		t.Errorf("Figure2 rows = %d", rows)
	}
	if n := len(res.Figures.Fig3.Final); n != 1 {
		t.Errorf("Figure3 series = %d", n)
	}
}

func TestFacadeTrustParams(t *testing.T) {
	p := DefaultTrustParams()
	if p.Default != 0.4 || p.Gamma != 0.6 {
		t.Errorf("defaults = %+v", p)
	}
}

func TestFacadeFullStack(t *testing.T) {
	if testing.Short() {
		t.Skip("full stack run")
	}
	spec := experiment.FullStackSpec(1, 16, 0, 4*time.Minute, 45*time.Second, "phantom")
	res, err := Run(context.Background(), spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r := experiment.ReduceFullStack(res.Trials[0]); !r.Convicted {
		t.Errorf("facade full stack did not convict: %s", r)
	}
}
