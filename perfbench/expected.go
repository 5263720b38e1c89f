package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// expectedJSON pins the default-seed results of every workload. A
// change that alters any simulated outcome must regenerate it with
// --update-expected, and say so.
//
//go:embed expected.json
var expectedJSON []byte

// expectedSet is the expected.json document.
type expectedSet struct {
	Seed      uint64                     `json:"seed"`
	Workloads map[string]*pinnedWorkload `json:"workloads"`
}

// pinnedWorkload is one workload's pinned results: a fingerprint and
// the fairness of each run of a simulation workload, or the SHA-256 of
// each served request's result bytes, keyed by request.
type pinnedWorkload struct {
	Runs   []pinnedRun       `json:"runs,omitempty"`
	Served map[string]string `json:"served,omitempty"`
}

// pinnedRun is one simulation's pinned outcome.
type pinnedRun struct {
	Spec        string  `json:"spec"`
	Fingerprint string  `json:"fingerprint"`
	Fairness    float64 `json:"fairness"`
}

func loadExpected() (*expectedSet, error) {
	var exp expectedSet
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if exp.Seed != pinnedSeed {
		return nil, fmt.Errorf("expected.json pins seed %d, want %d", exp.Seed, pinnedSeed)
	}
	return &exp, nil
}

// updateExpected runs every workload at the pinned seed, for the fewest
// iterations, and writes their results to path.
func updateExpected(ctx context.Context, cfg runConfig, path string) error {
	cfg.seed = pinnedSeed
	cfg.duration = 0
	cfg.trace = false
	exp := expectedSet{Seed: pinnedSeed, Workloads: map[string]*pinnedWorkload{}}
	for _, name := range workloadNames() {
		r, pin, err := workloads[name](ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", name, r.Failed, r.Attempted)
		}
		exp.Workloads[name] = pin
	}
	blob, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
