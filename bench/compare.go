package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// report is the -out file: the environment and one result per run.
type report struct {
	Env     environment `json:"env"`
	Results []*result   `json:"results"`
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func (rep *report) find(workload string, trace int) *result {
	for _, r := range rep.Results {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// worsening returns by what share of a the value b is worse than a, in the
// metric's direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints, per workload and end-to-end metric, both files' values,
// how much worse the second is and the bound, and reports whether every
// pairing stayed within its bound. Runs of one seed must also have produced
// the same adversarial videos.
func compare(w io.Writer, a, b *report) bool {
	ok := true
	fmt.Fprintf(w, "%-16s %-14s %12s %12s %9s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, wl := range workloads {
		ra, rb := a.find(wl.Name, 0), b.find(wl.Name, 0)
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := worsening(d, va, vb)
			verdict := ""
			if worse > d.Bound {
				verdict, ok = "  REGRESSION", false
			}
			fmt.Fprintf(w, "%-16s %-14s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n", wl.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		if rb.Failed > 0 {
			fmt.Fprintf(w, "%-16s b failed %d of %d operations and checks  REGRESSION\n", wl.Name, rb.Failed, rb.Attempted)
			ok = false
		}
		if a.Env.Seed != b.Env.Seed {
			continue
		}
		same := 0
		for i := 0; i < min(len(ra.Fingerprints), len(rb.Fingerprints)); i++ {
			if ra.Fingerprints[i] != rb.Fingerprints[i] {
				fmt.Fprintf(w, "%-16s attack %d: adversarial video %s became %s  REGRESSION\n", wl.Name, i, ra.Fingerprints[i], rb.Fingerprints[i])
				ok = false
				continue
			}
			same++
		}
		if same > 0 {
			fmt.Fprintf(w, "%-16s %d adversarial videos identical\n", wl.Name, same)
		}
	}
	return ok
}
