package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// ReportSchema versions the JSON layout below. Bump it only for breaking
// changes; additions of optional fields keep the same version.
const ReportSchema = "semperos-bench/v1"

// Report collects experiment Results and serializes them as the
// machine-readable perf trajectory (the BENCH_*.json files). The layout is
//
//	{
//	  "schema": "semperos-bench/v1",
//	  "quick": true,
//	  "parallel": 4,
//	  "results": [
//	    {"experiment": "fig6/tar",
//	     "config": {"kernels": 4, "services": 4, "instances": 16},
//	     "metrics": {"cycles": 6210000, "efficiency": 0.93, "capops": 336},
//	     "wallclock_ns": 1234567},
//	    ...
//	  ]
//	}
//
// Every metrics field is simulated and deterministic — identical across
// -parallel settings and across machines; only wallclock_ns varies.
type Report struct {
	mu sync.Mutex

	Schema   string   `json:"schema"`
	Quick    bool     `json:"quick"`
	Parallel int      `json:"parallel"`
	Results  []Result `json:"results"`
}

// NewReport returns an empty report carrying the run's settings.
func NewReport(quick bool, parallel int) *Report {
	return &Report{Schema: ReportSchema, Quick: quick, Parallel: parallel}
}

// Add appends results. It is safe for concurrent use, though the sweeps
// record whole ordered batches so the file stays deterministic.
func (r *Report) Add(rs ...Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Results = append(r.Results, rs...)
}

// Len returns the number of recorded results.
func (r *Report) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.Results)
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WallclockSummary writes the sweep's host-time profile: the topN slowest
// tasks and the per-experiment wall-clock totals (grouped by the experiment
// name's top-level component, so fig6/tar and fig6/sqlite pool under fig6).
func (r *Report) WallclockSummary(w io.Writer, topN int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.Results) == 0 {
		return
	}
	ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

	idx := make([]int, len(r.Results))
	var total int64
	for i, res := range r.Results {
		idx[i] = i
		total += res.WallclockNS
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.Results[idx[a]].WallclockNS > r.Results[idx[b]].WallclockNS
	})
	fmt.Fprintf(w, "Wall-clock summary: %d tasks, %.0fms of task time\n", len(r.Results), ms(total))
	fmt.Fprintf(w, " slowest tasks:\n")
	for i := 0; i < min(topN, len(idx)); i++ {
		res := r.Results[idx[i]]
		fmt.Fprintf(w, "  %10.1fms  %-24s %dK %dS %dI\n", ms(res.WallclockNS),
			res.Experiment, res.Config.Kernels, res.Config.Services, res.Config.Instances)
	}

	groupTotal := map[string]int64{}
	groupTasks := map[string]int{}
	var groups []string
	for _, res := range r.Results {
		g, _, _ := strings.Cut(res.Experiment, "/")
		if _, seen := groupTotal[g]; !seen {
			groups = append(groups, g)
		}
		groupTotal[g] += res.WallclockNS
		groupTasks[g]++
	}
	sort.SliceStable(groups, func(a, b int) bool { return groupTotal[groups[a]] > groupTotal[groups[b]] })
	fmt.Fprintf(w, " per-experiment totals:\n")
	for _, g := range groups {
		fmt.Fprintf(w, "  %10.1fms  %-12s (%d tasks)\n", ms(groupTotal[g]), g, groupTasks[g])
	}

	// Allocation profile: total capabilities minted across all tasks that
	// report a count, and the largest end-of-task heap any single task saw
	// (a process-global HeapAlloc reading — an RSS-style ceiling, not a
	// per-task attribution).
	var capsalloc, capsbytes uint64
	for _, res := range r.Results {
		capsalloc += res.CapsMinted
		capsbytes = max(capsbytes, res.HeapPeakBytes)
	}
	if capsalloc > 0 || capsbytes > 0 {
		fmt.Fprintf(w, " capsalloc: %d caps minted   capsbytes: %.1f MiB peak task heap\n",
			capsalloc, float64(capsbytes)/(1<<20))
	}
}
