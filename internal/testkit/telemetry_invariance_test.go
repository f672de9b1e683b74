package testkit

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// coordRunObs builds a coordinator RunObs with every sink live plus the
// cluster view, so telemetry federation and span stitching both engage.
func coordRunObs() *obs.RunObs {
	o := fullRunObs()
	o.Cluster = obs.NewCluster(o.Clock)
	return o
}

// telemetryConfig is distConfig plus per-worker telemetry: every
// in-process worker gets its own fresh RunObs, so each shard ships an
// SVTM frame after its store commit.
func telemetryConfig(w *World, shards int, workerCfg, reduceCfg pipeline.Config, crash func(int) bool) dist.Config {
	cfg := distConfig(w, shards, workerCfg, reduceCfg, crash)
	cfg.Transport.(*dist.LocalTransport).WorkerObs = func(int) *obs.RunObs { return obs.New() }
	return cfg
}

// TestTelemetryInvarianceDistributed is the tentpole differential: a
// distributed run with worker telemetry on — workers capturing and
// shipping SVTM frames, the coordinator federating metrics and stitching
// spans — must be bit-identical to the same run with telemetry off, for
// every worker count. And the telemetry must actually arrive: spans on
// every worker's pid track, every shard DONE with telemetry "ok", and
// fleet counters summing to the corpus.
func TestTelemetryInvarianceDistributed(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	for _, shards := range []int{1, 2, 4} {
		plain, failed, err := dist.Mine(context.Background(), docs, w.KB,
			distConfig(w, shards, cfg, cfg, nil))
		if err != nil || len(failed) != 0 {
			t.Fatalf("shards %d silent: err=%v failed=%v", shards, err, failed)
		}

		o := coordRunObs()
		reduceCfg := cfg
		reduceCfg.Obs = o
		observed, failed, err := dist.Mine(context.Background(), docs, w.KB,
			telemetryConfig(w, shards, cfg, reduceCfg, nil))
		if err != nil || len(failed) != 0 {
			t.Fatalf("shards %d telemetry: err=%v failed=%v", shards, err, failed)
		}
		if diffs := DiffResults(plain, observed); len(diffs) > 0 {
			t.Errorf("shards %d: telemetry-on run diverges from telemetry-off:\n  %s",
				shards, strings.Join(diffs, "\n  "))
		}

		// Stitched trace: every worker contributed spans on its own pid track.
		pids := map[int]bool{}
		for _, ev := range o.Tracer.Events() {
			pids[ev.Pid] = true
		}
		for s := 0; s < shards; s++ {
			if !pids[obs.WorkerPid(s)] {
				t.Errorf("shards %d: no spans on worker %d's pid track %d (tracks seen: %v)",
					shards, s, obs.WorkerPid(s), pids)
			}
		}

		// Cluster view: every shard committed with its telemetry federated.
		snap := o.Cluster.Snapshot()
		if snap.Workers != shards || snap.ShardsDone != shards || snap.ShardsLost != 0 {
			t.Fatalf("shards %d: cluster %s", shards, snap)
		}
		for _, sv := range snap.Shards {
			if sv.Status != obs.ShardDone || sv.Telemetry != "ok" || sv.Spans == 0 {
				t.Errorf("shards %d: shard view %+v", shards, sv)
			}
			if sv.WireBytesOut == 0 || sv.WireBytesIn == 0 {
				t.Errorf("shards %d: shard %d recorded no wire volume: %+v", shards, sv.Shard, sv)
			}
		}

		// Federated metrics: worker counters sum under the fleet namespace,
		// and the distributed gauges record the fleet shape.
		metrics := map[string]float64{}
		for _, m := range o.Metrics.Snapshot() {
			metrics[m.Name] = m.Value
		}
		if got := metrics[obs.FleetMetricName("surveyor_documents_total")]; got != float64(len(docs)) {
			t.Errorf("shards %d: fleet documents = %v, want %d", shards, got, len(docs))
		}
		if got := metrics["surveyor_dist_workers"]; got != float64(shards) {
			t.Errorf("shards %d: dist workers gauge = %v", shards, got)
		}
		if got := metrics["surveyor_dist_telemetry_frames_total"]; got != float64(shards) {
			t.Errorf("shards %d: telemetry frames = %v", shards, got)
		}
		if got := metrics["surveyor_dist_telemetry_rejected_total"]; got != 0 {
			t.Errorf("shards %d: telemetry rejected = %v", shards, got)
		}
	}
}

// TestTelemetryInvarianceChaos adds the content-selected panic fault:
// telemetry must stay write-only under quarantine traffic too, and every
// shard still commits and federates.
func TestTelemetryInvarianceChaos(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2, Fault: PanicFault(chaosSeed, chaosRate)}
	batch := pipeline.Run(docs, w.KB, w.Lex, cfg)
	if len(batch.Quarantined) == 0 {
		t.Fatal("chaos selector picked no documents — useless fixture")
	}
	for _, shards := range []int{2, 4} {
		o := coordRunObs()
		reduceCfg := cfg
		reduceCfg.Obs = o
		res, failed, err := dist.Mine(context.Background(), docs, w.KB,
			telemetryConfig(w, shards, cfg, reduceCfg, nil))
		if err != nil || len(failed) != 0 {
			t.Fatalf("shards %d: err=%v failed=%v", shards, err, failed)
		}
		if diffs := DiffResults(batch, res); len(diffs) > 0 {
			t.Errorf("shards %d: faulted telemetry run diverges from faulted batch:\n  %s",
				shards, strings.Join(diffs, "\n  "))
		}
		for _, sv := range o.Cluster.Snapshot().Shards {
			if sv.Status != obs.ShardDone || sv.Telemetry != "ok" {
				t.Errorf("shards %d: shard view %+v", shards, sv)
			}
		}
		// The workers counted the quarantines in their own registries; the
		// coordinator's series, which /healthz reads, must count them too.
		if got := o.Metrics.Counter(obs.MetricQuarantinedDocs, "").Value(); got != int64(len(res.Quarantined)) {
			t.Errorf("shards %d: %s = %d, want %d", shards, obs.MetricQuarantinedDocs, got, len(res.Quarantined))
		}
		rec := httptest.NewRecorder()
		obs.Handler(o).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if body := rec.Body.String(); !strings.HasPrefix(body, "degraded") {
			t.Errorf("shards %d: /healthz = %q, want degraded", shards, body)
		}
	}
}

// TestTelemetryInvarianceCrash kills one worker: its telemetry is simply
// absent — the lost shard shows LOST without an "ok" note, the survivors
// federate normally, and the partial result is bit-identical to the same
// crash with telemetry off.
func TestTelemetryInvarianceCrash(t *testing.T) {
	w := NewWorld(2, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	const shards, crashShard = 4, 2
	crash := func(s int) bool { return s == crashShard }

	plain, failed, err := dist.Mine(context.Background(), docs, w.KB,
		distConfig(w, shards, cfg, cfg, crash))
	if err != nil || len(failed) != 1 {
		t.Fatalf("silent crash run: err=%v failed=%v", err, failed)
	}

	o := coordRunObs()
	reduceCfg := cfg
	reduceCfg.Obs = o
	res, failed, err := dist.Mine(context.Background(), docs, w.KB,
		telemetryConfig(w, shards, cfg, reduceCfg, crash))
	if err != nil || len(failed) != 1 || failed[0].Shard != crashShard {
		t.Fatalf("telemetry crash run: err=%v failed=%v", err, failed)
	}
	if diffs := DiffResults(plain, res); len(diffs) > 0 {
		t.Errorf("telemetry-on crash run diverges from telemetry-off:\n  %s",
			strings.Join(diffs, "\n  "))
	}

	snap := o.Cluster.Snapshot()
	if snap.ShardsDone != shards-1 || snap.ShardsLost != 1 {
		t.Fatalf("cluster %s", snap)
	}
	for _, sv := range snap.Shards {
		if sv.Shard == crashShard {
			if sv.Status != obs.ShardLost || sv.Telemetry == "ok" || sv.Failure == "" {
				t.Errorf("crashed shard view %+v", sv)
			}
			continue
		}
		if sv.Status != obs.ShardDone || sv.Telemetry != "ok" {
			t.Errorf("surviving shard view %+v", sv)
		}
	}
	metrics := map[string]float64{}
	for _, m := range o.Metrics.Snapshot() {
		metrics[m.Name] = m.Value
	}
	if got := metrics["surveyor_dist_telemetry_frames_total"]; got != shards-1 {
		t.Errorf("telemetry frames = %v, want %d", got, shards-1)
	}
	if got := metrics["surveyor_dist_shards_failed_total"]; got != 1 {
		t.Errorf("shards failed = %v, want 1", got)
	}
}
