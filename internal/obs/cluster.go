// Cluster is the coordinator's live fleet view of one distributed run:
// per-shard protocol status, document and quarantine counts, wire byte
// volume, merge latency, and the telemetry/skew outcome of each worker.
// It is written by the distributed coordinator (internal/dist) through
// nil-safe recording methods — write-only from the miner's perspective,
// like every obs surface — and read by the debug server's /cluster
// endpoint and the JSON report.
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

// Cluster tracks one distributed run. The zero value is unusable; build
// with NewCluster (RunObs.New wires one on the shared clock). All methods
// are safe on a nil receiver and safe for concurrent use.
type Cluster struct {
	clock Clock

	mu      sync.Mutex
	started bool
	shards  []clusterShard
}

// clusterShard is the coordinator's record of one shard.
type clusterShard struct {
	status      string
	docs        int
	consumed    int
	quarantined int
	wireOut     int64 // job-frame bytes shipped to the worker
	wireIn      int64 // result+telemetry bytes read back
	mergeMillis float64
	spans       int
	skew        time.Duration
	hasSkew     bool
	telemetry   string // "", "ok", "absent", or "rejected: <cause>"
	failure     string
	attempts    int                // job frames launched for this shard
	heartbeats  int64              // liveness frames received
	history     []ShardAttemptView // per-attempt outcomes, oldest first

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

// StartRun resets the view for a run of the given shard count.
func (c *Cluster) StartRun(shards int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = true
	c.shards = make([]clusterShard, shards)
	for s := range c.shards {
		c.shards[s].status = ShardPending
	}
}

// shard returns the record for s, or nil when out of range (a run that
// never called StartRun records nothing).
func (c *Cluster) shard(s int) *clusterShard {
	if s < 0 || s >= len(c.shards) {
		return nil
	}
	return &c.shards[s]
}

// JobSent records the job frame leaving for shard s: its document count,
// the encoded bytes, and the coordinator-clock send anchor used for skew
// correction.
func (c *Cluster) JobSent(s, docs int, wireBytes int64) {
	if c == nil {
		return
	}
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shard(s); sh != nil {
		sh.status = ShardMining
		sh.docs = docs
		sh.wireOut += wireBytes
		sh.jobSent = now
		sh.hasSent = true
		sh.attempts++
	}
}

// maxAttemptHistory bounds one shard's recorded attempt history; a
// pathological retry storm truncates instead of growing without bound.
const maxAttemptHistory = 64

// ShardAttemptEnded appends one attempt's terminal outcome (an Attempt*
// constant) and its cause to shard s's history.
func (c *Cluster) ShardAttemptEnded(s, attempt int, outcome, cause string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shard(s); sh != nil && len(sh.history) < maxAttemptHistory {
		sh.history = append(sh.history, ShardAttemptView{
			Attempt: attempt, Outcome: outcome, Cause: cause,
		})
	}
}

// ShardRetrying marks shard s as lost-but-retrying: a failed or expired
// attempt is being replaced by a fresh worker.
func (c *Cluster) ShardRetrying(s int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shard(s); sh != nil {
		sh.status = ShardRetrying
	}
}

// ShardHeartbeat records one liveness frame received from shard s's
// worker.
func (c *Cluster) ShardHeartbeat(s int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shard(s); sh != nil {
		sh.heartbeats++
	}
}

// ShardWire adds wire byte volume to shard s's record: out counts bytes
// shipped to the worker, in counts bytes read back.
func (c *Cluster) ShardWire(s int, out, in int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shard(s); sh != nil {
		sh.wireOut += out
		sh.wireIn += in
	}
}

// ResultReceived records the shard result arriving from shard s: the
// decoded bytes and the coordinator-clock receive anchor.
func (c *Cluster) ResultReceived(s int, wireBytes int64) {
	if c == nil {
		return
	}
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shard(s); sh != nil {
		sh.wireIn += wireBytes
		sh.resultRecv = now
		sh.hasRecv = true
	}
}

// ShardCommitted marks shard s merged into the cumulative store.
func (c *Cluster) ShardCommitted(s, consumed, quarantined int, mergeMillis float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shard(s); sh != nil {
		sh.status = ShardDone
		sh.consumed = consumed
		sh.quarantined = quarantined
		sh.mergeMillis = mergeMillis
	}
}

// ShardFailed marks shard s lost with its terminal error.
func (c *Cluster) ShardFailed(s int, err error) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shard(s); sh != nil {
		sh.status = ShardLost
		if err != nil {
			sh.failure = err.Error()
		}
	}
}

// TelemetryAbsorbed records a successfully federated telemetry frame:
// the span count stitched into the trace and the estimated clock skew.
func (c *Cluster) TelemetryAbsorbed(s, spans int, skew time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shard(s); sh != nil {
		sh.telemetry = "ok"
		sh.spans = spans
		sh.skew = skew
		sh.hasSkew = true
	}
}

// TelemetryMissing records a shard whose telemetry did not federate:
// absent (old or silent worker, or a lost shard) or rejected (a frame
// that failed validation — the shard's evidence still committed).
func (c *Cluster) TelemetryMissing(s int, reason string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shard(s); sh != nil {
		sh.telemetry = reason
	}
}

// skewOffset estimates the worker→coordinator clock offset for shard s
// from the coordinator's send/receive anchors and the worker's anchor
// pair, as the difference of interval midpoints (the NTP correction).
// ok is false when either anchor pair is incomplete; callers then stitch
// spans unshifted.
func (c *Cluster) skewOffset(s int, a ClockAnchor) (offset time.Duration, ok bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.shard(s)
	if sh == nil || !sh.hasSent || !sh.hasRecv {
		return 0, false
	}
	coordMid := (sh.jobSent + sh.resultRecv) / 2
	workerMid := (a.JobReceived + a.Captured) / 2
	return coordMid - workerMid, true
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
	if !c.started {
		return snap
	}
	snap.Shards = make([]ShardView, len(c.shards))
	for s := range c.shards {
		sh := &c.shards[s]
		v := ShardView{
			Shard:        s,
			Status:       sh.status,
			Docs:         sh.docs,
			Consumed:     sh.consumed,
			Quarantined:  sh.quarantined,
			WireBytesOut: sh.wireOut,
			WireBytesIn:  sh.wireIn,
			MergeMillis:  sh.mergeMillis,
			Spans:        sh.spans,
			Telemetry:    sh.telemetry,
			Failure:      sh.failure,
			Attempts:     sh.attempts,
			Heartbeats:   sh.heartbeats,
			History:      append([]ShardAttemptView(nil), sh.history...),
		}
		if sh.hasSkew {
			v.SkewMillis = float64(sh.skew) / float64(time.Millisecond)
		}
		snap.Shards[s] = v
		snap.WireBytesOut += sh.wireOut
		snap.WireBytesIn += sh.wireIn
		switch sh.status {
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
