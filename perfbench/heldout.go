package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/experiment"
	"repro/internal/scenario"
)

// heldoutFile holds the digest hashes of the simulator presets at the
// held-out trial seeds, computed once from the tree the benchmark was
// added to. A run at workload seed 1..MaxSeed checks every run against
// it, like a golden; a run at a higher seed can only check that a
// repeated (preset, seed) reproduces itself.
const heldoutFile = "perfbench/records/heldout.json"

// heldoutSeeds is the highest workload seed heldoutFile covers.
const heldoutSeeds = 32

// heldout is the content of heldoutFile: Trials[preset][t-1] is the
// digest hash of the preset at experiment.TrialSeed(presetSeed, t).
type heldout struct {
	MaxSeed int64               `json:"max_seed"`
	Trials  map[string][]string `json:"trials"`
}

func loadHeldout(root string) (*heldout, error) {
	data, err := os.ReadFile(filepath.Join(root, heldoutFile))
	if err != nil {
		return nil, fmt.Errorf("held-out digests: %w", err)
	}
	var h heldout
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("held-out digests: %w", err)
	}
	return &h, nil
}

// hash returns the recorded digest hash of preset at trial t, or "".
func (h *heldout) hash(preset string, t int) string {
	if hs := h.Trials[preset]; t >= 1 && t <= len(hs) {
		return hs[t-1]
	}
	return ""
}

// writeHeldout runs every simulator preset at the trials of workload
// seeds 1..heldoutSeeds, one run per CPU at a time, and writes their
// digest hashes to path.
func writeHeldout(ctx context.Context, path string) error {
	type job struct {
		spec  scenario.Spec
		trial int
	}
	h := heldout{MaxSeed: heldoutSeeds, Trials: map[string][]string{}}
	var jobs []job
	for _, name := range simPresetNames() {
		spec, ok := scenario.Get(name)
		if !ok {
			return fmt.Errorf("no preset %q", name)
		}
		n := heldoutSeeds * simWorkloadOf(name).trials
		h.Trials[name] = make([]string, n)
		for t := 1; t <= n; t++ {
			jobs = append(jobs, job{spec, t})
		}
	}
	var (
		mu       sync.Mutex
		firstErr error
		next     = make(chan job)
		wg       sync.WaitGroup
	)
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				spec := j.spec
				spec.Seed = experiment.TrialSeed(spec.Seed, j.trial)
				res, err := scenario.RunContext(ctx, spec)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s trial %d: %w", spec.Name, j.trial, err)
				} else if err == nil {
					h.Trials[spec.Name][j.trial-1] = res.Digest().Hash
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	b, err := json.MarshalIndent(h, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// simWorkloadOf returns the simulator workload a preset belongs to.
func simWorkloadOf(preset string) simWorkload {
	for _, w := range simWorkloads {
		for _, p := range w.presets {
			if p == preset {
				return w
			}
		}
	}
	return simWorkload{}
}
