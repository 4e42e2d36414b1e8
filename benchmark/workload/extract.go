package workload

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"dsplacer"
	"dsplacer/internal/dspgraph"
	"dsplacer/internal/gcn"
	"dsplacer/internal/netlist"
)

// ModelSHA256 is the digest of model/gcn-mini-auto.json, the GCN trained
// by `go run ./cmd/train -mini -features auto` (see NOTES.md). A model
// with other bytes would move dp_accuracy, so loading refuses it.
const ModelSHA256 = "5c43fb1a0d5096ec3ed628e407da3d38f4fca9867f498fd0b07604ec16111130"

// Extraction netlists: every topology family at two cell counts below the
// 3000-node switch from exact to sampled centralities and two above it,
// with seeds far from the five training designs' (101–105). Exact
// extraction grows as O(N·M), so the exact-side designs stay small enough
// that both sides cost about the same per op.
var (
	extractCells = []int{1000, 1500, 3500, 5000}
	extractSeeds = []int64{1001, 1002, 1003, 1004, 1005, 1006, 1007}
)

// ExtractOp is one datapath extraction: GCN identification, then the DSP
// graph of the identified datapath.
type ExtractOp struct {
	Name string
	NL   *dsplacer.Netlist
	// DSPs lists the netlist's DSP cell ids; the check and dp_accuracy
	// compare the identified set against their ground-truth labels.
	DSPs []int
}

// ExtractSet is the input of extract-gcn.
type ExtractSet struct {
	Ident *dsplacer.GCNIdentifier
	Ops   []ExtractOp
}

// LoadModel reads the GCN artifact after checking its digest.
func LoadModel(path string) (*gcn.Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != ModelSHA256 {
		return nil, fmt.Errorf("%s: sha256 %s, want %s", path, got, ModelSHA256)
	}
	return gcn.LoadFile(path)
}

// scaled resizes a family preset to about cells cells.
func scaled(s dsplacer.Spec, cells int, seed int64) dsplacer.Spec {
	f := float64(cells) / float64(s.LUT+s.LUTRAM+s.FF+s.BRAM+s.DSP)
	s.Name = fmt.Sprintf("%s-%d-s%d", s.Name, cells, seed)
	s.LUT = int(float64(s.LUT) * f)
	s.LUTRAM = int(float64(s.LUTRAM) * f)
	s.FF = int(float64(s.FF) * f)
	s.BRAM = int(float64(s.BRAM)*f + 0.5)
	s.DSP = int(float64(s.DSP)*f + 0.5)
	s.Seed = seed
	return s
}

func newExtractOp(spec dsplacer.Spec, dev *dsplacer.Device) (ExtractOp, error) {
	nl, err := dsplacer.Generate(spec, dev)
	if err != nil {
		return ExtractOp{}, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	return ExtractOp{Name: spec.Name, NL: nl, DSPs: nl.CellsOfType(netlist.DSP)}, nil
}

// NewExtractSet loads the model, generates the extraction netlists and
// runs one warm-up extraction on a netlist outside them. Identification
// uses the program's default feature configuration (auto mode), as a flow
// given only the model would.
func NewExtractSet(ctx context.Context, modelPath string) (*ExtractSet, error) {
	model, err := LoadModel(modelPath)
	if err != nil {
		return nil, err
	}
	dev, err := dsplacer.LookupDevice("zcu104")
	if err != nil {
		return nil, err
	}
	set := &ExtractSet{Ident: &dsplacer.GCNIdentifier{Model: model}}
	for _, base := range dsplacer.FamilySpecs() {
		for _, cells := range extractCells {
			for _, seed := range extractSeeds {
				op, err := newExtractOp(scaled(base, cells, seed), dev)
				if err != nil {
					return nil, err
				}
				set.Ops = append(set.Ops, op)
			}
		}
	}
	warm, err := newExtractOp(dsplacer.SmallSpec(), dev)
	if err != nil {
		return nil, err
	}
	if _, _, err := set.Run(ctx, warm); err != nil {
		return nil, fmt.Errorf("warm-up %s: %w", warm.Name, err)
	}
	return set, nil
}

// Run executes the op through the program's own identifier and returns
// the identified datapath DSPs and the datapath DSP graph's edge count.
func (s *ExtractSet) Run(ctx context.Context, op ExtractOp) ([]int, int, error) {
	ids, err := s.Ident.Identify(ctx, op.NL)
	if err != nil {
		return nil, 0, err
	}
	keep := make(map[int]bool, len(ids))
	for _, c := range ids {
		keep[c] = true
	}
	dg := dspgraph.Build(op.NL, dspgraph.Config{}).Filter(func(id int) bool { return keep[id] })
	return ids, len(dg.Edges), nil
}

// CheckExtract is the output check of an extraction: every identified id
// is a distinct DSP cell. It returns how many of the netlist's DSPs got
// the label their ground truth carries.
func CheckExtract(op ExtractOp, ids []int) (matched int, err error) {
	picked := make(map[int]bool, len(ids))
	for _, c := range ids {
		if c < 0 || c >= op.NL.NumCells() || op.NL.Cells[c].Type != netlist.DSP {
			return 0, fmt.Errorf("identified cell %d is not a DSP", c)
		}
		if picked[c] {
			return 0, fmt.Errorf("cell %d identified twice", c)
		}
		picked[c] = true
	}
	for _, c := range op.DSPs {
		if picked[c] == op.NL.Cells[c].DatapathTruth {
			matched++
		}
	}
	return matched, nil
}
