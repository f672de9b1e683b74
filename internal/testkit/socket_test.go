package testkit

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/pipeline"
)

// startSocketWorker runs a ServeSocket worker server on a fresh loopback
// listener until the test ends, and returns its dial address. The server
// mirrors `surveyor -dist-listen`: one shard attempt per accepted
// connection, heartbeats while mining.
func startSocketWorker(t *testing.T, w *World, cfg pipeline.Config, heartbeat time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		dist.ServeSocket(ctx, ln, w.KB, w.Lex, cfg, dist.SocketServerConfig{Heartbeat: heartbeat})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// TestSocketDistributedMatchesBatch runs the tentpole differential over
// the TCP transport: shards dialed out to standalone socket workers —
// the same protocol frames as the pipe transports, plus heartbeats the
// coordinator strips — must produce a run bit-identical to batch for
// every worker count.
func TestSocketDistributedMatchesBatch(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	batch := pipeline.Run(docs, w.KB, w.Lex, cfg)
	addrs := []string{
		startSocketWorker(t, w, cfg, 0),
		startSocketWorker(t, w, cfg, 0),
	}
	for _, shards := range []int{1, 2, 4, 8} {
		res, failed, err := dist.Mine(context.Background(), docs, w.KB, dist.Config{
			Shards:    shards,
			Transport: &dist.SocketTransport{Addrs: addrs, Seed: 1},
			Pipeline:  cfg,
		})
		if err != nil || len(failed) != 0 {
			t.Fatalf("shards %d: err=%v failed=%v", shards, err, failed)
		}
		if diffs := DiffResults(batch, res); len(diffs) > 0 {
			t.Errorf("shards %d: socket run diverges from batch:\n  %s",
				shards, strings.Join(diffs, "\n  "))
		}
	}
}

// TestSocketHeartbeatsObserved turns the workers' heartbeat interval down
// to a millisecond: the coordinator must strip every liveness frame from
// the protocol stream (the run still matches batch) while counting them
// on the heartbeat counter and the per-shard cluster column.
func TestSocketHeartbeatsObserved(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	// A sleep-only fault slows extraction without touching its output, so
	// each shard is guaranteed to span several heartbeat intervals even on
	// a fast machine; the batch side runs the same config, and a pure
	// delay cannot move a single bit of the result.
	cfg := pipeline.Config{Rho: 10, Workers: 2,
		Fault: func(int, *corpus.Document) { time.Sleep(50 * time.Microsecond) }}
	batch := pipeline.Run(docs, w.KB, w.Lex, cfg)
	addr := startSocketWorker(t, w, cfg, time.Millisecond)
	const shards = 2
	o := coordRunObs()
	reduceCfg := cfg
	reduceCfg.Obs = o
	res, failed, err := dist.Mine(context.Background(), docs, w.KB, dist.Config{
		Shards:    shards,
		Transport: &dist.SocketTransport{Addrs: []string{addr}, Seed: 1},
		Pipeline:  reduceCfg,
	})
	if err != nil || len(failed) != 0 {
		t.Fatalf("err=%v failed=%v", err, failed)
	}
	if diffs := DiffResults(batch, res); len(diffs) > 0 {
		t.Errorf("heartbeat run diverges from batch:\n  %s", strings.Join(diffs, "\n  "))
	}
	if got := metricValues(o)["surveyor_dist_heartbeats_total"]; got < 1 {
		t.Errorf("heartbeats_total = %v, want at least 1", got)
	}
	var perShard int64
	for _, sv := range o.Cluster.Snapshot().Shards {
		perShard += sv.Heartbeats
	}
	if perShard < 1 {
		t.Error("no heartbeats recorded on any shard's cluster column")
	}
}

// TestSocketReconnectSkipsDeadEndpoint points the transport at a dead
// endpoint first: every dial to it must fail, back off, and rotate to the
// live worker — the reconnect path — without costing the run anything.
func TestSocketReconnectSkipsDeadEndpoint(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	batch := pipeline.Run(docs, w.KB, w.Lex, cfg)

	// A listener opened and immediately closed: a dead worker host whose
	// port refuses connections.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	live := startSocketWorker(t, w, cfg, 0)

	const shards = 2
	res, failed, err := dist.Mine(context.Background(), docs, w.KB, dist.Config{
		Shards: shards,
		Transport: &dist.SocketTransport{
			Addrs:          []string{deadAddr, live},
			ConnectBackoff: time.Millisecond,
			Seed:           1,
		},
		Pipeline: cfg,
	})
	if err != nil || len(failed) != 0 {
		t.Fatalf("dead endpoint must be skipped: err=%v failed=%v", err, failed)
	}
	if diffs := DiffResults(batch, res); len(diffs) > 0 {
		t.Errorf("reconnect run diverges from batch:\n  %s", strings.Join(diffs, "\n  "))
	}
}
