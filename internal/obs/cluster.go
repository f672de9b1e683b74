package obs

import (
	"fmt"
	"sync"
	"time"
)

// Shard protocol states, mirroring the state machine in the dist
// protocol documentation. With the self-healing scheduler a shard
// cycles PENDING → MINING → (RETRYING → MINING)* → DONE, and reaches
// LOST only once its retry budget is exhausted.
const (
	ShardPending  = "PENDING"
	ShardMining   = "MINING"
	ShardRetrying = "RETRYING"
	ShardDone     = "DONE"
	ShardLost     = "LOST"
)

// Attempt outcomes recorded in a shard's history by the self-healing
// scheduler.
const (
	AttemptCommitted = "committed" // result committed to the run
	AttemptDuplicate = "duplicate" // late result discarded — an earlier attempt already committed
	AttemptFailed    = "failed"    // worker crashed, spoke a broken protocol, or was cancelled
	AttemptExpired   = "expired"   // shard deadline reclaimed the attempt from a hung worker
)

// Cluster is the coordinator's live fleet view of one distributed run and
// its one fleet sink: per shard, protocol status, document and quarantine
// counts, wire byte volume, merge latency, and the telemetry/skew outcome
// of the worker. Every recording method moves the shard's record and the
// surveyor_dist_* / surveyor_wire_bytes_* series that count the same
// event, so which field and which series an event moves is decided here
// and nowhere else. It is written by internal/dist — write-only from the
// miner's perspective, like every obs surface — and read by the debug
// server's /cluster endpoint and the JSON report.
//
// The zero value is unusable; build with NewCluster (obs.New wires one on
// the shared clock) and start through RunObs.StartFleet, which binds the
// registry and tracer — a cluster started with StartRun alone keeps
// records and moves no series. All methods are safe on a nil receiver and
// safe for concurrent use.
type Cluster struct {
	clock Clock

	// Where the run's series and federated worker telemetry go. Bound by
	// StartFleet before any recording goroutine exists.
	metrics *Registry
	tracer  *Tracer

	mu     sync.Mutex
	series fleetSeries
	shards []shardState // nil until a run starts
}

// shardState is the coordinator's record of one shard: the JSON shape
// served at /cluster is the state, beside the coordinator-clock anchors
// skew correction needs.
type shardState struct {
	ShardView

	jobSent    time.Duration
	resultRecv time.Duration
	hasSent    bool
	hasRecv    bool
}

// NewCluster returns an empty cluster view reading timestamps from clock
// (nil selects the shared system clock).
func NewCluster(clock Clock) *Cluster {
	return &Cluster{clock: clockOrDefault(clock)}
}

// StartFleet starts the fleet view of a distributed run of the given
// shard count and returns the sink the coordinator records it through.
// A RunObs with no Cluster still gets its series moved — through a
// cluster nothing serves. Nil (inert) on a nil RunObs.
func (o *RunObs) StartFleet(shards int) *Cluster {
	if o == nil {
		return nil
	}
	c := o.Cluster
	if c == nil {
		c = NewCluster(o.Clock)
	}
	c.metrics, c.tracer = o.Metrics, o.Tracer
	c.StartRun(shards)
	return c
}

// StartRun resets the view for a run of the given shard count.
func (c *Cluster) StartRun(shards int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.series = resolveFleetSeries(c.metrics)
	c.series.workers.Set(float64(shards))
	c.shards = make([]shardState, shards)
	for s := range c.shards {
		c.shards[s].ShardView = ShardView{Shard: s, Status: ShardPending}
	}
}

// record runs f on shard s's record under the lock. A nil cluster, a run
// that never started and an out-of-range shard record nothing.
func (c *Cluster) record(s int, f func(sh *shardState)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s >= 0 && s < len(c.shards) {
		f(&c.shards[s])
	}
}

// wire adds byte volume to a shard's record and the codec series: out
// counts bytes shipped to the worker, in counts bytes read back.
func (c *Cluster) wire(sh *shardState, out, in int64) {
	sh.WireBytesOut += out
	sh.WireBytesIn += in
	c.series.encoded.Add(out)
	c.series.decoded.Add(in)
}

// JobSent records the job frame leaving for shard s: its document count,
// the encoded bytes, and the coordinator-clock send anchor used for skew
// correction. A job leaving for a RETRYING shard is a reassignment: a
// fresh worker picked the shard up (a retry the transport could not start
// sends no job and reassigns nothing).
func (c *Cluster) JobSent(s, docs int, wireBytes int64) {
	c.record(s, func(sh *shardState) {
		if sh.Status == ShardRetrying {
			c.series.reassigned.Inc()
		}
		sh.Status = ShardMining
		sh.Docs = docs
		sh.Attempts++
		sh.jobSent, sh.hasSent = c.clock.Now(), true
		c.wire(sh, wireBytes, 0)
	})
}

// maxAttemptHistory bounds one shard's recorded attempt history; a
// pathological retry storm truncates instead of growing without bound.
const maxAttemptHistory = 64

// ShardAttemptEnded appends one attempt's terminal outcome (an Attempt*
// constant) and its cause to shard s's history.
func (c *Cluster) ShardAttemptEnded(s, attempt int, outcome, cause string) {
	c.record(s, func(sh *shardState) {
		switch outcome {
		case AttemptDuplicate:
			c.series.duplicates.Inc()
		case AttemptExpired:
			c.series.expired.Inc()
		}
		if len(sh.History) < maxAttemptHistory {
			sh.History = append(sh.History, ShardAttemptView{
				Attempt: attempt, Outcome: outcome, Cause: cause,
			})
		}
	})
}

// ShardRetrying marks shard s as lost-but-retrying: a failed or expired
// attempt is being replaced by a fresh worker.
func (c *Cluster) ShardRetrying(s int) {
	c.record(s, func(sh *shardState) {
		sh.Status = ShardRetrying
		c.series.retries.Inc()
	})
}

// ShardHeartbeat records one liveness frame received from shard s's
// worker.
func (c *Cluster) ShardHeartbeat(s int) {
	c.record(s, func(sh *shardState) {
		sh.Heartbeats++
		c.series.heartbeats.Inc()
	})
}

// ShardWire adds wire byte volume to shard s: out counts bytes shipped
// to the worker, in counts bytes read back.
func (c *Cluster) ShardWire(s int, out, in int64) {
	c.record(s, func(sh *shardState) { c.wire(sh, out, in) })
}

// ResultReceived records the shard result arriving from shard s: the
// decoded bytes and the coordinator-clock receive anchor.
func (c *Cluster) ResultReceived(s int, wireBytes int64) {
	c.record(s, func(sh *shardState) {
		sh.resultRecv, sh.hasRecv = c.clock.Now(), true
		c.wire(sh, 0, wireBytes)
	})
}

// ShardCommitted marks shard s merged into the cumulative store. Its
// quarantined documents count into the run's MetricQuarantinedDocs, as a
// batch run's do: the workers counted them in registries of their own.
func (c *Cluster) ShardCommitted(s, consumed, quarantined int, mergeMillis float64) {
	c.record(s, func(sh *shardState) {
		sh.Status = ShardDone
		sh.Consumed = consumed
		sh.Quarantined = quarantined
		sh.MergeMillis = mergeMillis
		c.series.shipped.Inc()
		c.series.quarantined.Add(int64(quarantined))
		c.series.mergeMillis.Observe(mergeMillis)
	})
}

// ShardFailed marks shard s lost with its terminal error.
func (c *Cluster) ShardFailed(s int, err error) {
	c.record(s, func(sh *shardState) {
		sh.Status = ShardLost
		if err != nil {
			sh.Failure = err.Error()
		}
		c.series.failed.Inc()
	})
}

// ShardTelemetry federates what followed shard s's committed result. A
// decoded frame's metric snapshot folds into the fleet namespace of the
// registry and its spans stitch into the trace on the shard's pid track
// with skew-corrected timestamps; no frame (t nil) records "absent".
// Failures are absorbed here — the shard's evidence already committed, so
// a frame that failed wire decoding (err) or federation degrades to a
// rejection counter and a cluster note instead of an error the miner
// could branch on (the write-only contract). Federation is all or
// nothing, so a rejected frame moves no fleet series and stitches no span.
func (c *Cluster) ShardTelemetry(s int, t *Telemetry, err error) {
	if c == nil {
		return
	}
	if err == nil && t != nil {
		c.series.frames.Inc()
		err = c.metrics.AbsorbSnapshot(t.Metrics)
	}
	switch {
	case err != nil:
		c.series.rejected.Inc()
		c.TelemetryMissing(s, "rejected: "+err.Error())
	case t == nil:
		c.TelemetryMissing(s, "absent")
	default:
		offset, _ := c.skewOffset(s, t.Anchor)
		c.tracer.AbsorbSpans(WorkerPid(s), fmt.Sprintf("worker %d", s), offset, t.Spans)
		c.TelemetryAbsorbed(s, len(t.Spans), offset)
	}
}

// TelemetryAbsorbed records a successfully federated telemetry frame:
// the span count stitched into the trace and the estimated clock skew.
func (c *Cluster) TelemetryAbsorbed(s, spans int, skew time.Duration) {
	c.record(s, func(sh *shardState) {
		sh.Telemetry = "ok"
		sh.Spans = spans
		sh.SkewMillis = float64(skew) / float64(time.Millisecond)
	})
}

// TelemetryMissing records a shard whose telemetry did not federate:
// absent (no frame and no error) or rejected (a frame that did not come
// or failed validation — the shard's evidence still committed).
func (c *Cluster) TelemetryMissing(s int, reason string) {
	c.record(s, func(sh *shardState) { sh.Telemetry = reason })
}

// skewOffset estimates the worker→coordinator clock offset for shard s
// from the coordinator's send/receive anchors and the worker's anchor
// pair, as the difference of interval midpoints (the NTP correction).
// ok is false when either anchor pair is incomplete; callers then stitch
// spans unshifted.
func (c *Cluster) skewOffset(s int, a ClockAnchor) (offset time.Duration, ok bool) {
	c.record(s, func(sh *shardState) {
		if !sh.hasSent || !sh.hasRecv {
			return
		}
		coordMid := (sh.jobSent + sh.resultRecv) / 2
		workerMid := (a.JobReceived + a.Captured) / 2
		offset, ok = coordMid-workerMid, true
	})
	return offset, ok
}

// ShardAttemptView is the JSON shape of one attempt in a shard's
// history.
type ShardAttemptView struct {
	Attempt int    `json:"attempt"`
	Outcome string `json:"outcome"`
	Cause   string `json:"cause,omitempty"`
}

// ShardView is the JSON shape of one shard in a cluster snapshot.
type ShardView struct {
	Shard        int                `json:"shard"`
	Status       string             `json:"status"`
	Docs         int                `json:"docs"`
	Consumed     int                `json:"consumed"`
	Quarantined  int                `json:"quarantined,omitempty"`
	WireBytesOut int64              `json:"wire_bytes_out"`
	WireBytesIn  int64              `json:"wire_bytes_in"`
	MergeMillis  float64            `json:"merge_ms"`
	Spans        int                `json:"spans,omitempty"`
	SkewMillis   float64            `json:"skew_ms"`
	Telemetry    string             `json:"telemetry,omitempty"`
	Failure      string             `json:"failure,omitempty"`
	Attempts     int                `json:"attempts,omitempty"`
	Heartbeats   int64              `json:"heartbeats,omitempty"`
	History      []ShardAttemptView `json:"history,omitempty"`
}

// ClusterSnapshot is the JSON shape of the /cluster endpoint.
type ClusterSnapshot struct {
	Workers        int         `json:"workers"`
	ShardsDone     int         `json:"shards_done"`
	ShardsLost     int         `json:"shards_lost"`
	ShardsRetrying int         `json:"shards_retrying,omitempty"`
	WireBytesOut   int64       `json:"wire_bytes_out"`
	WireBytesIn    int64       `json:"wire_bytes_in"`
	Shards         []ShardView `json:"shards"`
}

// Snapshot returns the current fleet view. A nil or never-started
// cluster yields the zero snapshot.
func (c *Cluster) Snapshot() ClusterSnapshot {
	if c == nil {
		return ClusterSnapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := ClusterSnapshot{Workers: len(c.shards)}
	if c.shards == nil {
		return snap
	}
	snap.Shards = make([]ShardView, len(c.shards))
	for s := range c.shards {
		v := c.shards[s].ShardView
		v.History = append([]ShardAttemptView(nil), v.History...)
		snap.Shards[s] = v
		snap.WireBytesOut += v.WireBytesOut
		snap.WireBytesIn += v.WireBytesIn
		switch v.Status {
		case ShardDone:
			snap.ShardsDone++
		case ShardLost:
			snap.ShardsLost++
		case ShardRetrying:
			snap.ShardsRetrying++
		}
	}
	return snap
}

// String renders a one-line summary (for logs and tests).
func (s ClusterSnapshot) String() string {
	return fmt.Sprintf("workers=%d done=%d lost=%d wire_out=%d wire_in=%d",
		s.Workers, s.ShardsDone, s.ShardsLost, s.WireBytesOut, s.WireBytesIn)
}
