package metrics

import (
	"testing"

	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
)

func testDevice(t *testing.T) *fpga.Device {
	t.Helper()
	d, err := fpga.NewDevice(fpga.Config{
		Name: "m", Pattern: "CD", Repeats: 2, RegionRows: 1, PSWidth: 2, PSHeight: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDatapathPSDistance(t *testing.T) {
	dev := testDevice(t)
	pos := []geom.Point{{X: 1, Y: 1}, {X: 10, Y: 20}}
	got := DatapathPSDistance(dev, []int{0, 1}, pos)
	want := (2.0 + 30.0) / 2
	if got != want {
		t.Fatalf("got %v want %v", got, want)
	}
	if DatapathPSDistance(dev, nil, pos) != 0 {
		t.Fatal("empty cells should give 0")
	}
}
