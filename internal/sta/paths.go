package sta

import "sort"

// PathReport describes one endpoint's worst path for timing reports.
type PathReport struct {
	Endpoint int
	Slack    float64
	// Cells lists the worst path to the endpoint, launch to capture. Only
	// the endpoint and launch are guaranteed for registered-to-registered
	// hops; interior combinational cells are included when present.
	Cells []int
}

// TopPaths returns the k worst endpoint paths sorted by ascending slack,
// reconstructing each path like WorstPath does. Intended for timing-report
// style output ("report_timing -max_paths k").
func (r *Result) TopPaths(k int) []PathReport {
	eps := make([]Endpoint, len(r.Endpoints))
	copy(eps, r.Endpoints)
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].Slack != eps[j].Slack {
			return eps[i].Slack < eps[j].Slack
		}
		return eps[i].Cell < eps[j].Cell
	})
	if k > len(eps) {
		k = len(eps)
	}
	out := make([]PathReport, 0, k)
	for _, e := range eps[:k] {
		out = append(out, PathReport{
			Endpoint: e.Cell,
			Slack:    e.Slack,
			Cells:    r.pathTo(e.Cell),
		})
	}
	return out
}

// pathTo reconstructs the worst path into an endpoint using the stored
// predecessor chains.
func (r *Result) pathTo(endpoint int) []int {
	path := []int{endpoint}
	for v := r.endpointPred[endpoint]; v >= 0; v = r.pred[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
