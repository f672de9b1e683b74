package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// Report is the machine-readable summary of one run, written by
// cmd/surveyor's -report flag: run statistics, per-phase wall times, the
// full metric snapshot, and the EM convergence summary.
type Report struct {
	// Run identification.
	GoVersion string    `json:"go_version"`
	Build     BuildInfo `json:"build"`
	Workers   int       `json:"workers"`
	Rho       int64     `json:"rho"`
	Version   int       `json:"pattern_version"`

	// Corpus and output statistics.
	Documents         int   `json:"documents"`
	Sentences         int64 `json:"sentences"`
	Statements        int64 `json:"statements"`
	DistinctPairs     int   `json:"distinct_pairs"`
	PairsBeforeFilter int   `json:"pairs_before_filter"`
	Groups            int   `json:"groups_modelled"`
	Opinions          int64 `json:"opinions"`

	// Fault-boundary outcome: quarantined documents, lenient-mode skipped
	// corpus lines, and whether the run was cut short (SIGINT, stream
	// error) — in which case the statistics above describe the committed
	// partial result.
	QuarantinedDocs int64  `json:"quarantined_docs,omitempty"`
	SkippedLines    int64  `json:"skipped_lines,omitempty"`
	Partial         bool   `json:"partial,omitempty"`
	PartialCause    string `json:"partial_cause,omitempty"`

	// Per-phase wall times, milliseconds.
	TimingsMillis map[string]int64 `json:"timings_ms"`

	// Telemetry snapshots. EM is re-derived from the run's result by the
	// caller, not recorded by the RunObs.
	Metrics []Metric         `json:"metrics,omitempty"`
	EM      EMSnapshot       `json:"em,omitempty"`
	Cluster *ClusterSnapshot `json:"cluster,omitempty"`
}

// EMSnapshot is the EM convergence summary of a result: one row per
// modelled group, in the result's (type, property) order.
type EMSnapshot struct {
	Groups          int             `json:"groups"`
	Converged       int             `json:"converged"`
	TotalIterations int             `json:"total_iterations"`
	MeanIterations  float64         `json:"mean_iterations"`
	Records         []EMGroupRecord `json:"records,omitempty"`
}

// EMGroupRecord is the convergence summary of one (type, property) fit,
// with its per-iteration trajectory when one was asked for.
type EMGroupRecord struct {
	Type               string        `json:"type"`
	Property           string        `json:"property"`
	Entities           int           `json:"entities"`
	Iterations         int           `json:"iterations"`
	Converged          bool          `json:"converged"`
	FinalLogLikelihood JSONFloat     `json:"final_log_likelihood"`
	Trajectory         []EMIteration `json:"trajectory,omitempty"`
}

// EMIteration is the model state after one EM iteration.
type EMIteration struct {
	LogLikelihood JSONFloat `json:"log_likelihood"`
	PA            float64   `json:"pa"`
	NpPlus        float64   `json:"np_plus"`
	NpMinus       float64   `json:"np_minus"`
}

// NewReport returns a report pre-filled with toolchain and build
// identification.
func NewReport() *Report {
	return &Report{
		GoVersion:     runtime.Version(),
		Build:         ReadBuild(),
		TimingsMillis: map[string]int64{},
	}
}

// Attach fills the telemetry sections from a RunObs (nil leaves them
// empty). The cluster section appears only when a distributed run
// populated the fleet view.
func (r *Report) Attach(o *RunObs) {
	if o == nil {
		return
	}
	r.Metrics = o.Metrics.Snapshot()
	if cs := o.Cluster.Snapshot(); cs.Workers > 0 {
		r.Cluster = &cs
	}
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("obs: write report: %w", err)
	}
	return nil
}
