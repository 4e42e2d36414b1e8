package measure

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Metric is one named figure of the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object a run prints as the last line of its standard
// output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Print writes r as one line of JSON.
func (r Result) Print(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// Ledger counts ops attempted and failed, and reports each failure on
// standard error with its workload, op and reason.
type Ledger struct {
	Workload  string
	Attempted int
	Failed    int
}

// Pass records one op whose output passed every check.
func (l *Ledger) Pass() { l.Attempted++ }

// Fail records one op that returned an error or failed a check.
func (l *Ledger) Fail(op string, reason error) {
	l.Attempted++
	l.Failed++
	fmt.Fprintf(os.Stderr, "FAIL workload=%s op=%s reason=%v\n", l.Workload, op, reason)
}

// OKRatio is the share of attempted ops that succeeded.
func (l *Ledger) OKRatio() float64 {
	if l.Attempted == 0 {
		return 0
	}
	return float64(l.Attempted-l.Failed) / float64(l.Attempted)
}

// Passes calls pass(0), pass(1), ... and returns the net time of each
// (see Stopwatch). Another pass starts only while the median pass so far,
// in wall time, still fits in what remains of budget, so a run measures
// about budget and never runs long by more than one pass; at least one
// pass always runs.
func Passes(budget time.Duration, pass func(i int) (net, wall time.Duration, err error)) ([]float64, error) {
	start := time.Now()
	var nets, walls []float64
	for i := 0; ; i++ {
		net, wall, err := pass(i)
		if err != nil {
			return nets, err
		}
		nets = append(nets, net.Seconds())
		walls = append(walls, wall.Seconds())
		left := budget - time.Since(start)
		if time.Duration(Median(walls)*float64(time.Second)) > left {
			return nets, nil
		}
	}
}
