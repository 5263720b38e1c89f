package harness

import (
	"context"
	"runtime"
	"time"
)

// runCost is what measuredRun measures around one run.
type runCost struct {
	// AllocsPerQuantum is heap allocations over the whole run per
	// scheduling quantum.
	AllocsPerQuantum float64
	// RunsPerSec is whole simulations per wall-clock second (1/Wall).
	RunsPerSec float64
	// Wall is the run's wall-clock time.
	Wall time.Duration
}

// measuredRun executes one spec with heap and wall-clock instrumentation
// around it. Callers must run specs serially — concurrent simulations
// would attribute each other's allocations. The scale, SLO and
// tournament emitters all share this one definition of how a run is
// measured.
func measuredRun(ctx context.Context, spec RunSpec) (*RunOutput, runCost, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := Run(ctx, spec)
	c := runCost{Wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, runCost{}, err
	}
	if out.Decisions > 0 {
		c.AllocsPerQuantum = float64(after.Mallocs-before.Mallocs) / float64(out.Decisions)
	}
	if s := c.Wall.Seconds(); s > 0 {
		c.RunsPerSec = 1 / s
	}
	return out, c, nil
}
