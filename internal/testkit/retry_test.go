package testkit

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// retryConfig builds a coordinator config around a caller-assembled
// LocalTransport carrying chaos hooks, with the self-healing retry
// policy engaged. The transport's Base/Lex/Pipeline are filled in here
// so tests only spell out the hooks.
func retryConfig(w *World, shards int, workerCfg, reduceCfg pipeline.Config, lt *dist.LocalTransport, policy dist.RetryPolicy) dist.Config {
	lt.Base, lt.Lex, lt.Pipeline = w.KB, w.Lex, workerCfg
	return dist.Config{Shards: shards, Transport: lt, Pipeline: reduceCfg, Retry: policy}
}

// fastRetry is the chaos suites' retry policy: a real budget with
// millisecond backoff so a healed run costs test time, not wall-clock
// minutes.
func fastRetry(maxAttempts int) dist.RetryPolicy {
	return dist.RetryPolicy{
		MaxAttempts: maxAttempts,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Seed:        chaosSeed,
	}
}

// metricValues flattens a registry snapshot for by-name assertions.
func metricValues(o *obs.RunObs) map[string]float64 {
	vals := map[string]float64{}
	for _, m := range o.Metrics.Snapshot() {
		vals[m.Name] = m.Value
	}
	return vals
}

// TestRetryTransientCrashMatchesBatch is the tentpole differential of the
// self-healing scheduler: every shard's first worker crashes, the retry
// budget replaces each with a fresh one, and the healed run must be
// bit-identical to the batch run — not batch minus the crashed shards —
// for every worker count. The retry traffic must be visible on the
// coordinator's counters and in each shard's attempt history.
func TestRetryTransientCrashMatchesBatch(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	batch := pipeline.Run(docs, w.KB, w.Lex, cfg)
	for _, shards := range []int{1, 2, 4, 8} {
		o := coordRunObs()
		reduceCfg := cfg
		reduceCfg.Obs = o
		lt := &dist.LocalTransport{
			FailAttempt: func(_, attempt int) bool { return attempt == 0 },
		}
		res, failed, err := dist.Mine(context.Background(), docs, w.KB,
			retryConfig(w, shards, cfg, reduceCfg, lt, fastRetry(3)))
		if err != nil || len(failed) != 0 {
			t.Fatalf("shards %d: transient crashes must heal: err=%v failed=%v", shards, err, failed)
		}
		if diffs := DiffResults(batch, res); len(diffs) > 0 {
			t.Errorf("shards %d: healed run diverges from batch:\n  %s",
				shards, strings.Join(diffs, "\n  "))
		}

		metrics := metricValues(o)
		if got := metrics["surveyor_dist_shard_retries_total"]; got != float64(shards) {
			t.Errorf("shards %d: retries = %v, want %d", shards, got, shards)
		}
		if got := metrics["surveyor_dist_shard_reassignments_total"]; got != float64(shards) {
			t.Errorf("shards %d: reassignments = %v, want %d", shards, got, shards)
		}
		if got := metrics["surveyor_dist_shards_failed_total"]; got != 0 {
			t.Errorf("shards %d: shards_failed = %v, want 0", shards, got)
		}
		snap := o.Cluster.Snapshot()
		if snap.ShardsDone != shards || snap.ShardsLost != 0 {
			t.Fatalf("shards %d: cluster %s", shards, snap)
		}
		for _, sv := range snap.Shards {
			if sv.Attempts != 2 {
				t.Errorf("shards %d: shard %d burned %d attempts, want 2", shards, sv.Shard, sv.Attempts)
			}
			if len(sv.History) != 2 ||
				sv.History[0].Outcome != obs.AttemptFailed ||
				sv.History[1].Outcome != obs.AttemptCommitted {
				t.Errorf("shards %d: shard %d history %+v, want [failed committed]",
					shards, sv.Shard, sv.History)
			}
		}
	}
}

// TestRetryCrashThenRecoverMatchesBatch crashes one shard's workers twice
// in a row: the shard must survive on its third and final attempt, and
// the run must still be bit-identical to batch.
func TestRetryCrashThenRecoverMatchesBatch(t *testing.T) {
	w := NewWorld(2, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	batch := pipeline.Run(docs, w.KB, w.Lex, cfg)
	const shards, sick = 4, 1
	o := coordRunObs()
	reduceCfg := cfg
	reduceCfg.Obs = o
	lt := &dist.LocalTransport{
		FailAttempt: func(shard, attempt int) bool { return shard == sick && attempt < 2 },
	}
	res, failed, err := dist.Mine(context.Background(), docs, w.KB,
		retryConfig(w, shards, cfg, reduceCfg, lt, fastRetry(3)))
	if err != nil || len(failed) != 0 {
		t.Fatalf("err=%v failed=%v", err, failed)
	}
	if diffs := DiffResults(batch, res); len(diffs) > 0 {
		t.Errorf("crash-then-recover run diverges from batch:\n  %s", strings.Join(diffs, "\n  "))
	}
	sv := o.Cluster.Snapshot().Shards[sick]
	if sv.Status != obs.ShardDone || sv.Attempts != 3 {
		t.Fatalf("sick shard view %+v, want DONE after 3 attempts", sv)
	}
	if len(sv.History) != 3 ||
		sv.History[0].Outcome != obs.AttemptFailed ||
		sv.History[1].Outcome != obs.AttemptFailed ||
		sv.History[2].Outcome != obs.AttemptCommitted {
		t.Errorf("sick shard history %+v, want [failed failed committed]", sv.History)
	}
}

// TestRetryConnectionDropMatchesBatch breaks one shard's result stream
// mid-frame (a dropped TCP connection's in-process stand-in): the torn
// read must fail the attempt cleanly — never merge a partial delta — and
// the retried attempt must heal the run to bit-identity with batch.
func TestRetryConnectionDropMatchesBatch(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	batch := pipeline.Run(docs, w.KB, w.Lex, cfg)
	const shards, torn = 4, 2
	// Cut offsets probe a torn magic, a torn header, and a torn body.
	for _, cut := range []int64{2, 9, 300} {
		o := coordRunObs()
		reduceCfg := cfg
		reduceCfg.Obs = o
		lt := &dist.LocalTransport{
			CutResult: func(shard, attempt int) int64 {
				if shard == torn && attempt == 0 {
					return cut
				}
				return 0
			},
		}
		res, failed, err := dist.Mine(context.Background(), docs, w.KB,
			retryConfig(w, shards, cfg, reduceCfg, lt, fastRetry(3)))
		if err != nil || len(failed) != 0 {
			t.Fatalf("cut %d: err=%v failed=%v", cut, err, failed)
		}
		if diffs := DiffResults(batch, res); len(diffs) > 0 {
			t.Errorf("cut %d: healed run diverges from batch:\n  %s", cut, strings.Join(diffs, "\n  "))
		}
		if got := metricValues(o)["surveyor_dist_shard_retries_total"]; got != 1 {
			t.Errorf("cut %d: retries = %v, want 1", cut, got)
		}
	}
}

// TestRetryBudgetExhaustedEqualsBatchMinusShard keeps one shard's machine
// permanently dead: after the full budget burns, the shard must degrade
// to a typed ShardError carrying the attempt count and unwrapping to the
// injected crash — exactly today's lost-shard semantics — and the partial
// result must equal batch minus that shard's documents.
func TestRetryBudgetExhaustedEqualsBatchMinusShard(t *testing.T) {
	w := NewWorld(2, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	const shards, dead = 4, 2
	o := coordRunObs()
	reduceCfg := cfg
	reduceCfg.Obs = o
	lt := &dist.LocalTransport{
		Crash: func(shard int) bool { return shard == dead },
	}
	res, failed, err := dist.Mine(context.Background(), docs, w.KB,
		retryConfig(w, shards, cfg, reduceCfg, lt, fastRetry(3)))
	if err != nil {
		t.Fatalf("one lost shard must degrade, not abort: %v", err)
	}
	if len(failed) != 1 || failed[0].Shard != dead || failed[0].Attempts != 3 {
		t.Fatalf("failures %v, want shard %d lost after 3 attempts", failed, dead)
	}
	if !errors.Is(&failed[0], dist.ErrInjectedCrash) {
		t.Fatalf("error %v does not unwrap to the injected crash", &failed[0])
	}
	lo, hi := shardRange(len(docs), dead, shards)
	kept := append(append([]corpus.Document(nil), docs[:lo]...), docs[hi:]...)
	batch := pipeline.Run(kept, w.KB, w.Lex, cfg)
	if diffs := DiffResults(batch, res); len(diffs) > 0 {
		t.Errorf("exhausted run diverges from batch minus the shard:\n  %s",
			strings.Join(diffs, "\n  "))
	}

	metrics := metricValues(o)
	if got := metrics["surveyor_dist_shard_retries_total"]; got != 2 {
		t.Errorf("retries = %v, want 2", got)
	}
	if got := metrics["surveyor_dist_shards_failed_total"]; got != 1 {
		t.Errorf("shards_failed = %v, want 1", got)
	}
	sv := o.Cluster.Snapshot().Shards[dead]
	if sv.Status != obs.ShardLost || sv.Attempts != 3 || sv.Failure == "" {
		t.Fatalf("dead shard view %+v, want LOST after 3 attempts", sv)
	}
	if len(sv.History) != 3 {
		t.Fatalf("dead shard history %+v, want 3 failed attempts", sv.History)
	}
	for _, h := range sv.History {
		if h.Outcome != obs.AttemptFailed {
			t.Errorf("dead shard attempt %d outcome %q, want failed", h.Attempt, h.Outcome)
		}
	}
}

// TestRetryDeadlineReclaimsHungWorker hangs one shard's first worker past
// the shard deadline: the scheduler must reclaim the shard (abandoning,
// not waiting on, the straggler), mine it on a fresh worker, and still
// produce the exact batch result. The expiry must be counted.
func TestRetryDeadlineReclaimsHungWorker(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	batch := pipeline.Run(docs, w.KB, w.Lex, cfg)
	const shards, hung = 4, 1
	o := coordRunObs()
	reduceCfg := cfg
	reduceCfg.Obs = o
	// The straggler blocks its result write until the replacement attempt
	// starts serving — by then its deadline has long expired. Releasing it
	// (rather than holding forever) lets the run drain the straggler; its
	// late delivery races the replacement and either side may commit, which
	// is exactly the ambiguity the commit cell must absorb.
	release := make(chan struct{})
	lt := &dist.LocalTransport{
		Hold: func(shard, attempt int) <-chan struct{} {
			if shard == hung && attempt == 0 {
				return release
			}
			return nil
		},
		OnServe: func(shard, attempt int) {
			if shard == hung && attempt == 1 {
				close(release)
			}
		},
	}
	policy := fastRetry(3)
	policy.ShardDeadline = time.Second
	res, failed, err := dist.Mine(context.Background(), docs, w.KB,
		retryConfig(w, shards, cfg, reduceCfg, lt, policy))
	if err != nil || len(failed) != 0 {
		t.Fatalf("hung worker must be reclaimed: err=%v failed=%v", err, failed)
	}
	if diffs := DiffResults(batch, res); len(diffs) > 0 {
		t.Errorf("reclaimed run diverges from batch:\n  %s", strings.Join(diffs, "\n  "))
	}

	metrics := metricValues(o)
	if got := metrics["surveyor_dist_shard_deadlines_expired_total"]; got != 1 {
		t.Errorf("deadlines_expired = %v, want 1", got)
	}
	if got := metrics["surveyor_dist_shard_retries_total"]; got != 1 {
		t.Errorf("retries = %v, want 1", got)
	}
	sv := o.Cluster.Snapshot().Shards[hung]
	if sv.Status != obs.ShardDone || sv.Attempts != 2 {
		t.Fatalf("hung shard view %+v, want DONE after 2 attempts", sv)
	}
	if len(sv.History) == 0 || sv.History[0].Outcome != obs.AttemptExpired {
		t.Errorf("hung shard history %+v, want an expired first attempt", sv.History)
	}
}

// TestRetryDuplicateLateResultDiscarded proves the exactly-once shard
// commit under the nastiest interleaving: an abandoned straggler delivers
// a complete, valid result after its deadline — and commits, because
// nothing else has — then the replacement attempt delivers the same shard
// again. The second delivery must be discarded as a duplicate, counted
// once, and the run must still be bit-identical to batch.
//
// The interleaving is pinned, not raced: both attempts hold their result
// frames; the straggler's release fires when the replacement starts
// serving, and the replacement's release fires only once the cluster
// history shows the straggler's commit.
func TestRetryDuplicateLateResultDiscarded(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	batch := pipeline.Run(docs, w.KB, w.Lex, cfg)
	const shards, sick = 2, 0
	o := coordRunObs()
	reduceCfg := cfg
	reduceCfg.Obs = o

	release0 := make(chan struct{}) // straggler's held result frames
	release1 := make(chan struct{}) // replacement's held result frames
	lt := &dist.LocalTransport{
		Hold: func(shard, attempt int) <-chan struct{} {
			switch {
			case shard == sick && attempt == 0:
				return release0
			case shard == sick && attempt == 1:
				return release1
			}
			return nil
		},
		OnServe: func(shard, attempt int) {
			if shard == sick && attempt == 1 {
				close(release0)
			}
		},
	}
	// Release the replacement only after the straggler's late result has
	// committed (visible in the attempt history); time out rather than
	// deadlock if the commit never lands.
	committed := make(chan struct{})
	go func() {
		defer close(release1)
		deadline := time.After(15 * time.Second)
		for {
			// The view has no shards until Mine starts the run.
			if shards := o.Cluster.Snapshot().Shards; len(shards) > sick {
				for _, h := range shards[sick].History {
					if h.Outcome == obs.AttemptCommitted {
						close(committed)
						return
					}
				}
			}
			select {
			case <-deadline:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()

	policy := fastRetry(2)
	policy.ShardDeadline = 2 * time.Second
	res, failed, err := dist.Mine(context.Background(), docs, w.KB,
		retryConfig(w, shards, cfg, reduceCfg, lt, policy))
	select {
	case <-committed:
	default:
		t.Fatal("straggler's late result never committed — orchestration broke")
	}
	if err != nil || len(failed) != 0 {
		t.Fatalf("err=%v failed=%v", err, failed)
	}
	if diffs := DiffResults(batch, res); len(diffs) > 0 {
		t.Errorf("duplicate-delivery run diverges from batch:\n  %s", strings.Join(diffs, "\n  "))
	}

	metrics := metricValues(o)
	if got := metrics["surveyor_dist_duplicate_results_total"]; got != 1 {
		t.Errorf("duplicate_results = %v, want 1", got)
	}
	if got := metrics["surveyor_dist_shard_deadlines_expired_total"]; got != 1 {
		t.Errorf("deadlines_expired = %v, want 1", got)
	}
	sv := o.Cluster.Snapshot().Shards[sick]
	if sv.Status != obs.ShardDone || sv.Attempts != 2 {
		t.Fatalf("sick shard view %+v, want DONE after 2 attempts", sv)
	}
	want := []struct {
		attempt int
		outcome string
	}{
		{0, obs.AttemptExpired},   // deadline reclaimed the straggler
		{0, obs.AttemptCommitted}, // its late delivery still won the cell
		{1, obs.AttemptDuplicate}, // the replacement's delivery was discarded
	}
	if len(sv.History) != len(want) {
		t.Fatalf("sick shard history %+v, want %d entries", sv.History, len(want))
	}
	for i, h := range sv.History {
		if h.Attempt != want[i].attempt || h.Outcome != want[i].outcome {
			t.Errorf("history[%d] = %+v, want attempt %d %s", i, h, want[i].attempt, want[i].outcome)
		}
	}
}

// TestRetryObsInvariance extends the observability half of the
// determinism contract to the retry path: a healed chaotic run with every
// sink live (worker telemetry included) must be bit-identical to the same
// chaotic run fully silent, and a retried shard's committed attempt must
// still federate its telemetry.
func TestRetryObsInvariance(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	const shards = 4
	flaky := func(shard, attempt int) bool { return shard%2 == 1 && attempt == 0 }

	silentLT := &dist.LocalTransport{FailAttempt: flaky}
	plain, failed, err := dist.Mine(context.Background(), docs, w.KB,
		retryConfig(w, shards, cfg, cfg, silentLT, fastRetry(3)))
	if err != nil || len(failed) != 0 {
		t.Fatalf("silent run: err=%v failed=%v", err, failed)
	}

	o := coordRunObs()
	reduceCfg := cfg
	reduceCfg.Obs = o
	observedLT := &dist.LocalTransport{
		FailAttempt: flaky,
		WorkerObs:   func(int) *obs.RunObs { return obs.New() },
	}
	observed, failed, err := dist.Mine(context.Background(), docs, w.KB,
		retryConfig(w, shards, cfg, reduceCfg, observedLT, fastRetry(3)))
	if err != nil || len(failed) != 0 {
		t.Fatalf("observed run: err=%v failed=%v", err, failed)
	}
	if diffs := DiffResults(plain, observed); len(diffs) > 0 {
		t.Errorf("obs-on healed run diverges from obs-off:\n  %s", strings.Join(diffs, "\n  "))
	}

	metrics := metricValues(o)
	if got := metrics["surveyor_dist_shard_retries_total"]; got != 2 {
		t.Errorf("retries = %v, want 2", got)
	}
	if got := metrics["surveyor_dist_telemetry_frames_total"]; got != shards {
		t.Errorf("telemetry frames = %v, want %d", got, shards)
	}
	for _, sv := range o.Cluster.Snapshot().Shards {
		if sv.Status != obs.ShardDone || sv.Telemetry != "ok" {
			t.Errorf("shard view %+v, want DONE with telemetry ok", sv)
		}
	}
}
