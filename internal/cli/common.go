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

// Profiling is the -cpuprofile/-memprofile pair. RegisterCommon includes
// it; dsplacerd, whose jobs take their other settings from each request,
// registers it on its own.
type Profiling struct {
	cpuprofile string
	memprofile string

	cpuFile *os.File
}

// RegisterProfiling registers -cpuprofile and -memprofile on fs (pass
// flag.CommandLine for a main) and returns the pair. Call Profiling.Start
// after fs.Parse and run the returned stop function before the process
// exits.
func RegisterProfiling(fs *flag.FlagSet) *Profiling {
	p := &Profiling{}
	fs.StringVar(&p.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&p.memprofile, "memprofile", "", "write a pprof heap profile to this file on exit")
	return p
}

// Start begins CPU profiling when requested and returns the stop function:
// it stops the CPU profile and writes the heap profile when -memprofile is
// set. Run it via defer (or explicitly before exiting).
func (p *Profiling) Start() (stop func()) {
	if p.cpuprofile != "" {
		f, err := os.Create(p.cpuprofile)
		if err != nil {
			Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			Fatal(err)
		}
		p.cpuFile = f
	}
	return func() {
		if p.cpuFile != nil {
			pprof.StopCPUProfile()
			p.cpuFile.Close()
			p.cpuFile = nil
		}
		if p.memprofile != "" {
			f, err := os.Create(p.memprofile)
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

// Common is the flag bundle the commands that run placement flows share:
// the stochastic seed, the stage-boundary DRC gating level, the profiling
// pair and -stages. A command that runs no placement flow (train) registers
// it without -validate.
type Common struct {
	// Seed drives every stochastic component.
	Seed int64
	// Stages is the recorder -stages asks for, created by Start (nil
	// without the flag). The command hands it to the flows it runs, and
	// the stop function prints it.
	Stages *stage.Recorder

	validate string
	stages   bool
	prof     *Profiling
}

// RegisterCommon registers the shared flags on fs (pass flag.CommandLine
// for a main) with the given defaults and returns the bundle. An empty
// defaultValidate, which is no level, leaves -validate unregistered, and
// Validate must not be called. Call Common.Start after fs.Parse and run
// the returned stop function before the process exits.
func RegisterCommon(fs *flag.FlagSet, defaultSeed int64, defaultValidate string) *Common {
	c := &Common{prof: RegisterProfiling(fs)}
	fs.Int64Var(&c.Seed, "seed", defaultSeed, "random seed")
	if defaultValidate != "" {
		fs.StringVar(&c.validate, "validate", defaultValidate, "stage-boundary DRC gating: off, final or stages")
	}
	fs.BoolVar(&c.stages, "stages", false, "print the hot-path stage-timing counters on exit")
	return c
}

// Validate parses the -validate flag value, exiting fatally on an unknown
// level.
func (c *Common) Validate() core.ValidateLevel { return ParseValidate(c.validate) }

// Start creates the -stages recorder when requested, begins CPU profiling
// when requested, and returns the stop function that finishes all
// observability output: it prints the stage-timing table when -stages is
// set, then stops the profiles as Profiling's stop does.
func (c *Common) Start() (stop func()) {
	if c.stages {
		c.Stages = stage.NewRecorder(nil)
	}
	stopProfiling := c.prof.Start()
	return func() {
		if c.Stages != nil {
			fmt.Fprintf(os.Stdout, "\n================ Stage timings ================\n")
			c.Stages.Report(os.Stdout)
		}
		stopProfiling()
	}
}
