package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiling is the -cpuprofile/-memprofile flag pair a command registers
// with ProfileFlags. Both profiles are in the runtime/pprof format that
// `go tool pprof` reads.
type Profiling struct {
	cpuPath, memPath *string
	cpu              *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile on the default
// flag set. Call it before flag.Parse, and Start after.
func ProfileFlags() *Profiling {
	return &Profiling{
		cpuPath: flag.String("cpuprofile", "", "write a CPU profile of the command to this file"),
		memPath: flag.String("memprofile", "", "write a heap (allocation) profile to this file when the command ends"),
	}
}

// Start begins CPU profiling when -cpuprofile was given. Pair it with a
// deferred Stop; an exit through Fatal skips Stop and leaves no profile.
func (p *Profiling) Start() error {
	if *p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(*p.cpuPath)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.cpu = f
	return nil
}

// Stop ends the CPU profile and writes the heap profile, if requested.
func (p *Profiling) Stop() {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
		}
	}
	if *p.memPath == "" {
		return
	}
	f, err := os.Create(*p.memPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // up-to-date live-heap statistics
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
	}
}
