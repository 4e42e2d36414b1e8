package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"dsplacer/internal/core"
	"dsplacer/internal/stage"
)

// Common is the flag bundle every command shares: the stochastic seed, the
// stage-boundary DRC gating level, and the profiling/observability trio
// (-cpuprofile, -memprofile, -stages). Commands that run no placement flow
// simply ignore the fields they have no use for; registering the full set
// everywhere keeps the CLI surface uniform.
type Common struct {
	// Seed drives every stochastic component.
	Seed int64

	validate   string
	cpuprofile string
	memprofile string
	stages     bool

	cpuFile *os.File
}

// RegisterCommon registers the shared flags on fs (pass flag.CommandLine
// for a main) with the given defaults and returns the bundle. Call
// Common.Start after fs.Parse and run the returned stop function before
// the process exits.
func RegisterCommon(fs *flag.FlagSet, defaultSeed int64, defaultValidate string) *Common {
	c := &Common{}
	fs.Int64Var(&c.Seed, "seed", defaultSeed, "random seed")
	fs.StringVar(&c.validate, "validate", defaultValidate, "stage-boundary DRC gating: off, final or stages")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.BoolVar(&c.stages, "stages", false, "print the hot-path stage-timing counters on exit")
	return c
}

// Validate parses the -validate flag value, exiting fatally on an unknown
// level.
func (c *Common) Validate() core.ValidateLevel { return ParseValidate(c.validate) }

// Start begins CPU profiling when requested and returns the stop function
// that finishes all observability output: it stops the CPU profile, prints
// the stage-timing table when -stages is set, and writes the heap profile
// when -memprofile is set. Run it via defer (or explicitly before exiting).
func (c *Common) Start() (stop func()) {
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			Fatal(err)
		}
		c.cpuFile = f
	}
	return func() {
		if c.cpuFile != nil {
			pprof.StopCPUProfile()
			c.cpuFile.Close()
			c.cpuFile = nil
		}
		if c.stages {
			fmt.Fprintf(os.Stdout, "\n================ Stage timings ================\n")
			stage.Report(os.Stdout)
		}
		if c.memprofile != "" {
			f, err := os.Create(c.memprofile)
			if err != nil {
				Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				Fatal(err)
			}
		}
	}
}
