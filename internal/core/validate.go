// Stage-boundary DRC enforcement: the flows in this package hand their
// result to vendor tooling as constraints, so a silently corrupt
// intermediate (an overfull site, a broken cascade) poisons everything
// downstream. Config.Validate turns drc.Check into a gate at the stage
// boundaries of Run/RunBaseline/RunRSAD, with violations surfaced as
// structured, stage-tagged errors instead of being visible only to
// integration tests.

package core

import (
	"errors"
	"fmt"

	"dsplacer/internal/drc"
	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
)

// ValidateLevel selects how much of the flow is gated by drc.Check.
type ValidateLevel int

const (
	// ValidateOff performs no DRC gating (the historical behaviour).
	ValidateOff ValidateLevel = iota
	// ValidateFinal checks only the flow's final placement.
	ValidateFinal
	// ValidateEveryStage additionally checks every intermediate stage
	// boundary: the result of each placer call and each DSP site
	// assignment (a legalization round or the R-SAD lattice).
	ValidateEveryStage
)

func (l ValidateLevel) String() string {
	switch l {
	case ValidateOff:
		return "off"
	case ValidateFinal:
		return "final"
	case ValidateEveryStage:
		return "stages"
	}
	return fmt.Sprintf("ValidateLevel(%d)", int(l))
}

// ParseValidateLevel converts a -validate flag value to a level.
func ParseValidateLevel(s string) (ValidateLevel, error) {
	switch s {
	case "off", "none":
		return ValidateOff, nil
	case "final":
		return ValidateFinal, nil
	case "stages", "every-stage", "all":
		return ValidateEveryStage, nil
	}
	return ValidateOff, fmt.Errorf("core: unknown validate level %q (want off, final or stages)", s)
}

// ErrDRC is the sentinel matched by errors.Is for every stage-boundary DRC
// failure; errors.As with *ValidationError recovers the stage and the
// violation sample.
var ErrDRC = errors.New("placement violates design rules")

// MaxReportedViolations bounds how many violations a ValidationError
// carries; Total always records the full count.
const MaxReportedViolations = 8

// ValidationError reports a stage boundary whose artifact failed drc.Check.
type ValidationError struct {
	Flow       string          // "dsplacer", "vivado", "amf", "rsad"
	Stage      string          // e.g. "prototype", "legalize[0]", "final"
	Total      int             // total violation count
	Violations []drc.Violation // first MaxReportedViolations of them
}

func (e *ValidationError) Error() string {
	msg := fmt.Sprintf("%s flow, stage %q: %d DRC violation(s)", e.Flow, e.Stage, e.Total)
	for _, v := range e.Violations {
		msg += "\n  " + v.String()
	}
	if e.Total > len(e.Violations) {
		msg += fmt.Sprintf("\n  ... and %d more", e.Total-len(e.Violations))
	}
	return msg
}

// Unwrap lets errors.Is(err, ErrDRC) match wrapped validation failures.
func (e *ValidationError) Unwrap() error { return ErrDRC }

// newValidationError samples vs into a stage-tagged error (nil when clean).
func newValidationError(flow, stage string, vs []drc.Violation) error {
	if len(vs) == 0 {
		return nil
	}
	n := len(vs)
	if n > MaxReportedViolations {
		n = MaxReportedViolations
	}
	return &ValidationError{Flow: flow, Stage: stage, Total: len(vs), Violations: vs[:n]}
}

// ValidatePlacement runs the full design-rule check on a placement and
// returns a stage-tagged *ValidationError (wrapping ErrDRC) when it fails.
// siteOf may be nil to check position rules only.
func ValidatePlacement(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, siteOf map[int]int, flow, stage string) error {
	return newValidationError(flow, stage, drc.Check(dev, nl, pos, siteOf))
}

// ValidateAssignment checks a (possibly partial) DSP site assignment the
// same way, for the stage boundary after assignment+legalization where only
// the datapath DSPs carry sites.
func ValidateAssignment(dev *fpga.Device, nl *netlist.Netlist, siteOf map[int]int, flow, stage string) error {
	return newValidationError(flow, stage, drc.CheckAssignment(dev, nl, siteOf))
}

// gater carries one flow's validation context through its stage boundaries.
type gater struct {
	level ValidateLevel
	dev   *fpga.Device
	nl    *netlist.Netlist
	flow  string
	// corrupt is the test-only fault-injection hook (Config.corruptHook).
	corrupt func(stage string, pos []geom.Point, siteOf map[int]int)
}

// placement gates a full placement at a stage boundary; need is the minimum
// level at which this gate is active.
func (g *gater) placement(need ValidateLevel, stage string, pos []geom.Point, siteOf map[int]int) error {
	if g.corrupt != nil {
		g.corrupt(stage, pos, siteOf)
	}
	if g.level < need {
		return nil
	}
	if err := ValidatePlacement(g.dev, g.nl, pos, siteOf, g.flow, stage); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// assignment gates a DSP site assignment at a stage boundary.
func (g *gater) assignment(need ValidateLevel, stage string, siteOf map[int]int) error {
	if g.corrupt != nil {
		g.corrupt(stage, nil, siteOf)
	}
	if g.level < need {
		return nil
	}
	if err := ValidateAssignment(g.dev, g.nl, siteOf, g.flow, stage); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
