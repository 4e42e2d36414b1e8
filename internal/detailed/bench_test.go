package detailed_test

import (
	"testing"

	"dsplacer/internal/detailed"
	"dsplacer/internal/gen"
	"dsplacer/internal/geom"
	"dsplacer/internal/placer"
)

var gainSink float64

// BenchmarkRefine times one two-pass refinement of mini-iSmartDNN after a
// Vivado placement, the call the placer and the timing polish make.
func BenchmarkRefine(b *testing.B) {
	dev, nl, pos := placed(b, miniSpec(gen.TableI()[0]), placer.ModeVivado)
	work := make([]geom.Point, len(pos))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, pos)
		gainSink = detailed.Refine(dev, nl, work, detailed.Options{Passes: 2, Seed: 1})
	}
}
