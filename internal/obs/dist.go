package obs

// Metric names shared between the distributed miner's recording side and
// the debug server's read side (/healthz watches shard failures the same
// way it watches quarantines).
const (
	MetricDistWorkers       = "surveyor_dist_workers"
	MetricDistShardsFailed  = "surveyor_dist_shards_failed_total"
	MetricTelemetryRejected = "surveyor_dist_telemetry_rejected_total"
)

// fleetSeries is the coordinator's metric inventory. Cluster resolves it
// when a run starts and is the only code that moves it: each recording
// method there moves the shard record and the series that count the same
// event, so /cluster and /metrics cannot disagree. Every handle is nil
// (and recording free) without a registry.
type fleetSeries struct {
	workers     *Gauge     // shard/worker count of the current run
	shipped     *Counter   // shard deltas received and committed
	quarantined *Counter   // committed shards' quarantined documents; /healthz degrades on it
	failed      *Counter   // shards lost for good; /healthz degrades on it
	frames      *Counter   // worker telemetry frames received
	rejected    *Counter   // telemetry frames missing, undecodable or not federated
	retries     *Counter   // attempts launched beyond each shard's first
	reassigned  *Counter   // retries that reached a fresh worker
	expired     *Counter   // attempts reclaimed by the shard deadline
	duplicates  *Counter   // late results discarded by the exactly-once commit
	heartbeats  *Counter   // worker liveness frames received
	encoded     *Counter   // job frames written to workers
	decoded     *Counter   // result and telemetry frames read back
	mergeMillis *Histogram // per-shard Store.Merge latency
}

// defaultShardMergeBounds spans test-sized deltas (sub-millisecond) up to
// merges of production-shard counter sets.
var defaultShardMergeBounds = []float64{0.1, 0.5, 1, 5, 25, 100, 500, 2500}

func resolveFleetSeries(r *Registry) fleetSeries {
	return fleetSeries{
		workers: r.Gauge(MetricDistWorkers,
			"worker count of the current distributed run"),
		shipped: r.Counter("surveyor_dist_shards_shipped_total",
			"shard evidence deltas merged by the coordinator"),
		quarantined: r.Counter(MetricQuarantinedDocs,
			"documents quarantined by the per-document panic boundary"),
		failed: r.Counter(MetricDistShardsFailed,
			"shards lost to worker crashes or protocol errors"),
		frames: r.Counter("surveyor_dist_telemetry_frames_total",
			"worker telemetry frames received by the coordinator"),
		rejected: r.Counter(MetricTelemetryRejected,
			"worker telemetry frames that did not arrive, decode or federate"),
		retries: r.Counter("surveyor_dist_shard_retries_total",
			"shard attempts launched beyond the first (failed or expired workers replaced)"),
		reassigned: r.Counter("surveyor_dist_shard_reassignments_total",
			"shard retries handed to a different worker"),
		expired: r.Counter("surveyor_dist_shard_deadlines_expired_total",
			"shard attempts reclaimed from hung workers by the per-shard deadline"),
		duplicates: r.Counter("surveyor_dist_duplicate_results_total",
			"late shard results discarded after an earlier attempt committed"),
		heartbeats: r.Counter("surveyor_dist_heartbeats_total",
			"worker liveness frames received"),
		encoded: r.Counter(metricWireBytesEncoded,
			"wire-codec bytes encoded (job frames to workers)"),
		decoded: r.Counter("surveyor_wire_bytes_decoded_total",
			"wire-codec bytes decoded (result and telemetry frames from workers)"),
		mergeMillis: r.Histogram("surveyor_dist_shard_merge_ms",
			"per-shard evidence merge latency in milliseconds", defaultShardMergeBounds),
	}
}

// metricWireBytesEncoded is the one codec series both ends move, each
// with the help that says what it counts there: the coordinator the job
// frames it sends, a worker the result frame it ships.
const metricWireBytesEncoded = "surveyor_wire_bytes_encoded_total"

// WireBytesEncoded resolves the worker's copy of the encoded-bytes series:
// the bytes of the result frame it ships (federated as
// surveyor_fleet_wire_bytes_encoded_total). Nil without a registry.
func (o *RunObs) WireBytesEncoded() *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(metricWireBytesEncoded,
		"wire-codec bytes encoded (result frames shipped)")
}
