package obs

import (
	"math"
	"sort"
	"sync"
)

// EMRecorder collects convergence telemetry from the per-group EM fits:
// iterations-to-convergence and final log-likelihood for every group, and
// full per-iteration trajectories (log-likelihood plus the pA, np+S, np−S
// parameter path) for the first maxEMTrajectories groups to finish, so
// that large runs stay bounded while the Sevüktekin–Singer-style
// likelihood trajectories remain inspectable.
type EMRecorder struct {
	mu           sync.Mutex
	groups       []EMGroupRecord
	trajectories int
	totalGroups  int64
	totalIters   int64
	converged    int64
}

// Caps of one recorder: groups whose full per-iteration trajectory is
// kept, and per-group summary rows (the aggregate counters keep counting
// beyond it).
const (
	maxEMTrajectories = 64
	maxEMGroups       = 4096
)

// NewEMRecorder returns an empty recorder.
func NewEMRecorder() *EMRecorder { return &EMRecorder{} }

// EMIteration is one EM iteration's state in a recorded trajectory.
type EMIteration struct {
	LogLikelihood JSONFloat `json:"log_likelihood"`
	PA            float64   `json:"pa"`
	NpPlus        float64   `json:"np_plus"`
	NpMinus       float64   `json:"np_minus"`
	// Deltas are the absolute parameter changes against the previous
	// iteration (zero on the first).
	DeltaPA      float64 `json:"delta_pa"`
	DeltaNpPlus  float64 `json:"delta_np_plus"`
	DeltaNpMinus float64 `json:"delta_np_minus"`
}

// EMGroupRecord is the telemetry of one (type, property) fit.
type EMGroupRecord struct {
	Type               string        `json:"type"`
	Property           string        `json:"property"`
	Entities           int           `json:"entities"`
	Iterations         int           `json:"iterations"`
	Converged          bool          `json:"converged"`
	FinalLogLikelihood JSONFloat     `json:"final_log_likelihood"`
	Trajectory         []EMIteration `json:"trajectory,omitempty"`
}

// EMGroupObs accumulates one group's fit, worker-locally, then publishes
// it with Done. Obtained from RunObs.EMGroup; nil-safe throughout.
type EMGroupObs struct {
	rec    *EMRecorder
	record EMGroupRecord
	keep   bool // full trajectory wanted for this group
}

// Group starts recording one group's fit. The trajectory is kept only
// while the trajectory cap has room.
func (r *EMRecorder) Group(typ, property string, entities int) *EMGroupObs {
	if r == nil {
		return nil
	}
	g := &EMGroupObs{rec: r, record: EMGroupRecord{Type: typ, Property: property, Entities: entities}}
	r.mu.Lock()
	g.keep = r.trajectories < maxEMTrajectories
	r.mu.Unlock()
	return g
}

// Iter records one EM iteration. No-op unless this group's trajectory is
// being kept.
func (g *EMGroupObs) Iter(pa, npPlus, npMinus, logLikelihood float64) {
	if g == nil || !g.keep {
		return
	}
	it := EMIteration{LogLikelihood: JSONFloat(logLikelihood), PA: pa, NpPlus: npPlus, NpMinus: npMinus}
	if n := len(g.record.Trajectory); n > 0 {
		prev := g.record.Trajectory[n-1]
		it.DeltaPA = math.Abs(pa - prev.PA)
		it.DeltaNpPlus = math.Abs(npPlus - prev.NpPlus)
		it.DeltaNpMinus = math.Abs(npMinus - prev.NpMinus)
	}
	g.record.Trajectory = append(g.record.Trajectory, it)
}

// Done publishes the group's record with its final fit summary.
func (g *EMGroupObs) Done(iterations int, converged bool, finalLogLikelihood float64) {
	if g == nil {
		return
	}
	g.record.Iterations = iterations
	g.record.Converged = converged
	g.record.FinalLogLikelihood = JSONFloat(finalLogLikelihood)

	r := g.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	r.totalGroups++
	r.totalIters += int64(iterations)
	if converged {
		r.converged++
	}
	if g.keep && r.trajectories >= maxEMTrajectories {
		g.record.Trajectory = nil // cap raced; drop the trajectory, keep the summary
		g.keep = false
	}
	if g.keep {
		r.trajectories++
	}
	if len(r.groups) < maxEMGroups {
		r.groups = append(r.groups, g.record)
	}
}

// EMSnapshot is the recorder's state at a point in time.
type EMSnapshot struct {
	Groups          int64           `json:"groups"`
	Converged       int64           `json:"converged"`
	TotalIterations int64           `json:"total_iterations"`
	MeanIterations  float64         `json:"mean_iterations"`
	Records         []EMGroupRecord `json:"records,omitempty"`
}

// Snapshot returns the aggregate statistics plus the per-group records,
// sorted by (type, property) for deterministic output. A nil recorder
// yields a zero snapshot.
func (r *EMRecorder) Snapshot() EMSnapshot {
	if r == nil {
		return EMSnapshot{}
	}
	r.mu.Lock()
	snap := EMSnapshot{
		Groups:          r.totalGroups,
		Converged:       r.converged,
		TotalIterations: r.totalIters,
		Records:         make([]EMGroupRecord, len(r.groups)),
	}
	copy(snap.Records, r.groups)
	r.mu.Unlock()
	if snap.Groups > 0 {
		snap.MeanIterations = float64(snap.TotalIterations) / float64(snap.Groups)
	}
	sort.Slice(snap.Records, func(a, b int) bool {
		if snap.Records[a].Type != snap.Records[b].Type {
			return snap.Records[a].Type < snap.Records[b].Type
		}
		return snap.Records[a].Property < snap.Records[b].Property
	})
	return snap
}
