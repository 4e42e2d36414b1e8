// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -table1            # Table I   benchmark statistics
//	experiments -table2            # Table II  Vivado vs AMF vs DSPlacer
//	experiments -fig7a -fig7b      # Fig 7     GCN vs SVM classification
//	experiments -fig8              # Fig 8     runtime breakdown
//	experiments -fig9 -out DIR     # Fig 9     layout visualizations (+SVG)
//	experiments -ablations         # λ / MCF-iteration / filtering sweeps
//	experiments -matrix            # device × family QoR matrix
//	experiments -matrix -devices pynq-z2,zcu104   # subset of the device axis
//	experiments -all               # everything above
//	experiments -mini              # use ~1/16-scale benchmarks (fast)
//
// Profiling / observability (see DESIGN.md §8):
//
//	experiments -cpuprofile cpu.pb.gz -table2   # pprof CPU profile
//	experiments -memprofile mem.pb.gz -table2   # pprof heap profile on exit
//	experiments -stages -table2                 # hot-path stage timing table
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dsplacer/internal/cli"
	"dsplacer/internal/experiments"
	"dsplacer/internal/gen"
)

func main() {
	table1 := flag.Bool("table1", false, "regenerate Table I")
	table2 := flag.Bool("table2", false, "regenerate Table II")
	fig7a := flag.Bool("fig7a", false, "regenerate Fig 7(a)")
	fig7b := flag.Bool("fig7b", false, "regenerate Fig 7(b)")
	fig8 := flag.Bool("fig8", false, "regenerate Fig 8")
	fig9 := flag.Bool("fig9", false, "regenerate Fig 9")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations")
	extension := flag.Bool("extension", false, "run the R-SAD systolic-vs-diverse extension study")
	matrix := flag.Bool("matrix", false, "run the device × family QoR matrix")
	devices := flag.String("devices", "", "comma-separated device names for -matrix (default: every registered device)")
	all := flag.Bool("all", false, "run everything")
	mini := flag.Bool("mini", false, "use ~1/16-scale mini benchmarks")
	out := flag.String("out", ".", "output directory for SVG figures")
	epochs := flag.Int("epochs", 40, "GCN training epochs for Fig 7 (paper: 300)")
	mcfIters := flag.Int("mcf-iters", 50, "MCF iterations (paper: 50)")
	rounds := flag.Int("rounds", 2, "incremental rounds")
	common := cli.RegisterCommon(flag.CommandLine, 1, "off")
	flag.Parse()
	stop := common.Start()
	defer stop()

	if *all {
		*table1, *table2, *fig7a, *fig7b, *fig8, *fig9, *ablations, *extension, *matrix = true, true, true, true, true, true, true, true, true
	}
	if !(*table1 || *table2 || *fig7a || *fig7b || *fig8 || *fig9 || *ablations || *extension || *matrix) {
		flag.Usage()
		os.Exit(2)
	}

	specs := gen.TableI()
	if *mini {
		specs = experiments.MiniSpecs()
	}
	suite := experiments.NewSuite(specs)
	cfg := experiments.TableIIConfig{
		MCFIterations: *mcfIters, Rounds: *rounds, Lambda: 100, Seed: common.Seed,
		Validate: common.Validate(),
	}
	f7 := experiments.Fig7Config{Epochs: *epochs, Seed: common.Seed}
	w := os.Stdout

	if *table1 {
		section(w, "Table I")
		check(suite.TableI(w))
	}
	if *fig7a {
		section(w, "Fig 7(a)")
		_, err := suite.Fig7a(w, f7)
		check(err)
	}
	if *fig7b {
		section(w, "Fig 7(b)")
		_, err := suite.Fig7b(w, f7)
		check(err)
	}
	if *table2 {
		section(w, "Table II")
		_, err := suite.TableII(w, cfg)
		check(err)
	}
	if *fig8 {
		section(w, "Fig 8")
		check(suite.Fig8(w, cfg))
	}
	if *fig9 {
		section(w, "Fig 9")
		check(os.MkdirAll(*out, 0o755))
		check(suite.Fig9(w, *out, cfg))
	}
	if *extension {
		section(w, "Extension: R-SAD")
		check(suite.ExtensionRSAD(w, specs[1], cfg))
	}
	if *matrix {
		section(w, "QoR matrix")
		var devNames []string
		if *devices != "" {
			devNames = strings.Split(*devices, ",")
		}
		_, err := experiments.QoRMatrix(w, devNames, gen.FamilySpecs(), cfg)
		check(err)
	}
	if *ablations {
		section(w, "Ablations")
		spec := specs[1] // SkyNet(-like)
		check(suite.AblationLambda(w, spec, []float64{0, 10, 100, 1000}, cfg))
		check(suite.AblationMCFIterations(w, spec, []int{1, 5, 20, 50}, cfg))
		check(suite.AblationIdentifier(w, spec, cfg))
		check(suite.AblationLegalization(w, spec, cfg))
		if *mini {
			// The GCN-in-the-loop arm trains a model per run; it is kept to
			// the mini suite where that costs seconds, not tens of minutes.
			check(suite.AblationGCN(w, spec, cfg, f7))
		}
	}
}

func section(w *os.File, name string) {
	fmt.Fprintf(w, "\n================ %s ================\n", name)
}

func check(err error) {
	if err != nil {
		cli.Fatal(err)
	}
}
