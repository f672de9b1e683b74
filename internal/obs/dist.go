package obs

// Metric names shared between the distributed miner's recording side and
// the debug server's read side (/healthz watches shard failures the same
// way it watches quarantines).
const (
	MetricDistWorkers       = "surveyor_dist_workers"
	MetricDistShardsFailed  = "surveyor_dist_shards_failed_total"
	MetricTelemetryRejected = "surveyor_dist_telemetry_rejected_total"
)

// DistObs is the write-only counter set of the distributed miner
// (internal/dist): shards shipped over the wire, wire-codec byte volume
// in both directions, worker count, telemetry frames federated, and the
// coordinator's per-shard merge latency. Like every obs surface it is
// strictly write-only from the miner's perspective — distributed runs
// with a live sink are bit-identical to runs with a nil one.
type DistObs struct {
	// Workers gauges the shard/worker count of the current run.
	Workers *Gauge // surveyor_dist_workers
	// ShardsShipped counts shard evidence deltas received and committed by
	// the coordinator.
	ShardsShipped *Counter // surveyor_dist_shards_shipped_total
	// ShardsFailed counts shards lost to worker crashes or protocol
	// errors; /healthz degrades when it is non-zero.
	ShardsFailed *Counter // surveyor_dist_shards_failed_total
	// TelemetryFrames counts worker telemetry frames received and
	// federated by the coordinator.
	TelemetryFrames *Counter // surveyor_dist_telemetry_frames_total
	// ShardRetries counts shard attempts launched beyond each shard's
	// first — the self-healing scheduler replacing a failed or expired
	// worker.
	ShardRetries *Counter // surveyor_dist_shard_retries_total
	// ShardReassignments counts retries that handed the shard to a fresh
	// worker — every retry except one the transport could not start
	// (all dials refused), which reached nobody.
	ShardReassignments *Counter // surveyor_dist_shard_reassignments_total
	// DeadlinesExpired counts shard attempts reclaimed from hung workers
	// by the per-shard deadline.
	DeadlinesExpired *Counter // surveyor_dist_shard_deadlines_expired_total
	// DuplicateResults counts late shard results discarded because an
	// earlier attempt already committed — the exactly-once shard commit.
	DuplicateResults *Counter // surveyor_dist_duplicate_results_total
	// Heartbeats counts worker liveness frames received.
	Heartbeats *Counter // surveyor_dist_heartbeats_total
	// WireBytesEncoded and WireBytesDecoded count wire-codec traffic:
	// job frames written to workers, result and telemetry frames read
	// back.
	WireBytesEncoded *Counter // surveyor_wire_bytes_encoded_total
	WireBytesDecoded *Counter // surveyor_wire_bytes_decoded_total
	// ShardMergeMillis is the per-shard latency of folding one decoded
	// evidence delta into the coordinator's cumulative store.
	ShardMergeMillis *Histogram // surveyor_dist_shard_merge_ms
}

// defaultShardMergeBounds spans test-sized deltas (sub-millisecond) up to
// merges of production-shard counter sets.
var defaultShardMergeBounds = []float64{0.1, 0.5, 1, 5, 25, 100, 500, 2500}

// Dist resolves the distributed miner's metric inventory on the RunObs
// registry. With a nil RunObs or registry every handle is nil and
// recording is free.
func (o *RunObs) Dist() *DistObs {
	var r *Registry
	if o != nil {
		r = o.Metrics
	}
	return &DistObs{
		Workers: r.Gauge(MetricDistWorkers,
			"worker count of the current distributed run"),
		ShardsShipped: r.Counter("surveyor_dist_shards_shipped_total",
			"shard evidence deltas merged by the coordinator"),
		ShardsFailed: r.Counter(MetricDistShardsFailed,
			"shards lost to worker crashes or protocol errors"),
		TelemetryFrames: r.Counter("surveyor_dist_telemetry_frames_total",
			"worker telemetry frames received by the coordinator"),
		ShardRetries: r.Counter("surveyor_dist_shard_retries_total",
			"shard attempts launched beyond the first (failed or expired workers replaced)"),
		ShardReassignments: r.Counter("surveyor_dist_shard_reassignments_total",
			"shard retries handed to a different worker"),
		DeadlinesExpired: r.Counter("surveyor_dist_shard_deadlines_expired_total",
			"shard attempts reclaimed from hung workers by the per-shard deadline"),
		DuplicateResults: r.Counter("surveyor_dist_duplicate_results_total",
			"late shard results discarded after an earlier attempt committed"),
		Heartbeats: r.Counter("surveyor_dist_heartbeats_total",
			"worker liveness frames received"),
		WireBytesEncoded: r.Counter("surveyor_wire_bytes_encoded_total",
			"wire-codec bytes encoded (job frames to workers)"),
		WireBytesDecoded: r.Counter("surveyor_wire_bytes_decoded_total",
			"wire-codec bytes decoded (result and telemetry frames from workers)"),
		ShardMergeMillis: r.Histogram("surveyor_dist_shard_merge_ms",
			"per-shard evidence merge latency in milliseconds", defaultShardMergeBounds),
	}
}
