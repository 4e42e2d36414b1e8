// Package dsplacer is a pure-Go reproduction of "DSPlacer: DSP Placement
// for FPGA-based CNN Accelerator" (DAC 2025): a datapath-driven DSP
// placement framework for FPGA CNN accelerators, together with every
// substrate it needs — a column-heterogeneous UltraScale+ device model, an
// analytical global placer, a congestion-aware router, a static timing
// analyzer, a GCN datapath classifier, a min-cost-flow assignment engine
// and cascade legalization.
//
// The quickest path through the API:
//
//	dev := dsplacer.NewZCU104()
//	nl, _ := dsplacer.Generate(dsplacer.SmallSpec(), dev)
//	res, _ := dsplacer.Run(dev, nl, dsplacer.Config{ClockMHz: 200})
//	fmt.Printf("WNS %.3f ns, HPWL %.0f\n", res.WNS, res.HPWL)
//
// Run executes the full DSPlacer flow of the paper (prototype placement →
// datapath DSP extraction → iterative MCF placement + cascade legalization →
// incremental re-placement → routing → timing). RunBaseline provides the
// Vivado-like and AMF-like comparison flows of Table II.
//
// Beyond the ZCU104 evaluation part, LookupDevice resolves any fabric in
// the named registry (DeviceNames lists them), and beyond the paper's CNN
// benchmarks the generator offers further topology families (Spec.Family,
// FamilySpecs). Golden QoR envelopes for every (device, family) cell live
// under testdata/golden/qor.
package dsplacer

import (
	"context"

	"dsplacer/internal/core"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gen"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
)

// Re-exported core types: see package core for the full documentation.
type (
	// Config tunes a DSPlacer run (λ, η, MCF iterations, rounds, clock).
	Config = core.Config
	// Result reports WNS/TNS/HPWL/routed wirelength and the Fig. 8 profile.
	Result = core.Result
	// Profile decomposes runtime by flow stage.
	Profile = core.Profile
	// Identifier selects datapath DSPs (GCN or oracle).
	Identifier = core.Identifier
	// OracleIdentifier uses generator ground-truth labels.
	OracleIdentifier = core.OracleIdentifier
	// GCNIdentifier classifies DSPs with a trained GCN model.
	GCNIdentifier = core.GCNIdentifier
	// ValidateLevel selects stage-boundary DRC gating (Config.Validate).
	ValidateLevel = core.ValidateLevel
	// ValidationError is the stage-tagged DRC failure; recover it with
	// errors.As, or match the class with errors.Is(err, ErrDRC).
	ValidationError = core.ValidationError

	// Device models a column-heterogeneous FPGA fabric.
	Device = fpga.Device
	// DeviceConfig parameterizes NewDevice.
	DeviceConfig = fpga.Config
	// Netlist is a pre-implementation design.
	Netlist = netlist.Netlist
	// Spec describes a benchmark for the generator.
	Spec = gen.Spec
	// Family selects a generator topology family (Spec.Family).
	Family = gen.Family
	// Mode selects a baseline placer personality.
	Mode = placer.Mode
)

// Generator topology families for Spec.Family.
const (
	FamilyCNN            = gen.FamilyCNN
	FamilySparseSystolic = gen.FamilySparseSystolic
	FamilyMemMapped      = gen.FamilyMemMapped
	FamilyMultiAccel     = gen.FamilyMultiAccel
)

// Baseline placer modes for RunBaseline.
const (
	ModeVivado = placer.ModeVivado
	ModeAMF    = placer.ModeAMF
)

// Stage-boundary DRC gating levels for Config.Validate.
const (
	ValidateOff        = core.ValidateOff
	ValidateFinal      = core.ValidateFinal
	ValidateEveryStage = core.ValidateEveryStage
)

// ErrDRC is the sentinel every stage-boundary DRC failure wraps.
var ErrDRC = core.ErrDRC

// ErrCanceled is the sentinel every cancellation-driven early return wraps
// (context canceled or deadline exceeded); match it with errors.Is.
var ErrCanceled = core.ErrCanceled

// Run executes the complete DSPlacer flow on nl. See core.Run.
func Run(dev *Device, nl *Netlist, cfg Config) (*Result, error) {
	return core.Run(context.Background(), dev, nl, cfg)
}

// RunContext is Run under a context: the flow stops at the next stage
// boundary (or assignment iteration) once ctx is done, returning an error
// matching ErrCanceled.
func RunContext(ctx context.Context, dev *Device, nl *Netlist, cfg Config) (*Result, error) {
	return core.Run(ctx, dev, nl, cfg)
}

// RunBaseline executes a Vivado-like or AMF-like comparison flow.
func RunBaseline(dev *Device, nl *Netlist, mode Mode, cfg Config) (*Result, error) {
	return core.RunBaseline(context.Background(), dev, nl, mode, cfg)
}

// RunBaselineContext is RunBaseline under a context; see RunContext.
func RunBaselineContext(ctx context.Context, dev *Device, nl *Netlist, mode Mode, cfg Config) (*Result, error) {
	return core.RunBaseline(ctx, dev, nl, mode, cfg)
}

// NewZCU104 builds the ZCU104-like evaluation device (1728 DSP sites).
func NewZCU104() *Device { return fpga.NewZCU104() }

// NewDevice builds a custom device from a column pattern.
func NewDevice(cfg DeviceConfig) (*Device, error) { return fpga.NewDevice(cfg) }

// LookupDevice resolves a named device from the registry ("zcu104",
// "pynq-z2", "zu15eg", "arria10", ...); the error on an unknown name lists
// every registered part.
func LookupDevice(name string) (*Device, error) { return fpga.Lookup(name) }

// DeviceNames lists every registered device name, sorted.
func DeviceNames() []string { return fpga.Names() }

// ParseFamily resolves a topology family by name ("cnn",
// "sparse-systolic", "memmapped", "multi-accel").
func ParseFamily(name string) (Family, error) { return gen.ParseFamily(name) }

// FamilySpecs returns one preset benchmark spec per topology family,
// sized to fit every registered device.
func FamilySpecs() []Spec { return gen.FamilySpecs() }

// Generate synthesizes a CNN-accelerator benchmark netlist.
func Generate(spec Spec, dev *Device) (*Netlist, error) { return gen.Generate(spec, dev) }

// TableISpecs returns the paper's five benchmark specifications.
func TableISpecs() []Spec { return gen.TableI() }

// SmallSpec returns a miniature benchmark for quick starts and tests.
func SmallSpec() Spec { return gen.Small() }

// LoadNetlist reads a JSON netlist from disk.
func LoadNetlist(path string) (*Netlist, error) { return netlist.LoadFile(path) }
