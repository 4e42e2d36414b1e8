package main

import (
	"fmt"
	"math"
	"slices"
)

// tnsRelTol is how far a composed op's TNS may sit from the program's.
// sta.Analyze sums TNS while ranging over a map, so two identical
// analyses can differ in the last bits; HPWL and WNS have no such excuse.
const tnsRelTol = 1e-9

// QoR is what a composed flow must reproduce from the program's own run.
type QoR struct {
	HPWL, WNS, TNS float64
}

// Fidelity is the verdict of one comparison. TNSBits marks a TNS that is
// within tnsRelTol but not bit-identical: a known map-order defect of the
// program, counted in sta.tns_bit_mismatches.
type Fidelity struct {
	Err     error
	TNSBits bool
}

// CompareQoR requires bit-identical HPWL and WNS and a TNS within
// tnsRelTol of the program's (want).
func CompareQoR(got, want QoR) Fidelity {
	switch {
	case math.Float64bits(got.HPWL) != math.Float64bits(want.HPWL):
		return Fidelity{Err: fmt.Errorf("HPWL %v, program %v", got.HPWL, want.HPWL)}
	case math.Float64bits(got.WNS) != math.Float64bits(want.WNS):
		return Fidelity{Err: fmt.Errorf("WNS %v, program %v", got.WNS, want.WNS)}
	case math.Float64bits(got.TNS) == math.Float64bits(want.TNS):
		return Fidelity{}
	case math.Abs(got.TNS-want.TNS) <= tnsRelTol*math.Abs(want.TNS):
		return Fidelity{TNSBits: true}
	}
	return Fidelity{Err: fmt.Errorf("TNS %v, program %v", got.TNS, want.TNS)}
}

// CompareIDs requires the composed identification to pick the same
// datapath DSPs, in the same order, as the program's identifier.
func CompareIDs(got, want []int) Fidelity {
	if !slices.Equal(got, want) {
		return Fidelity{Err: fmt.Errorf("identified %d DSPs, program %d, sets differ", len(got), len(want))}
	}
	return Fidelity{}
}
