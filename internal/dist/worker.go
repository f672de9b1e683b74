package dist

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Serve is the worker's end of every link: read a job frame from rw, mine
// the shard's evidence with pipeline.ExtractEvidence (the map step — the
// job's DocOffset threads through so every reported document index is
// corpus-global), and ship the delta as a result frame on rw.
// cmd/surveyor's hidden -dist-worker mode calls it on stdin/stdout,
// ServeSocket on each accepted connection, LocalTransport on in-memory
// pipes.
//
// While mining, a heartbeat frame goes out every heartbeat interval (zero
// means 1s) so the coordinator can tell a slow shard from a dead link,
// and rw's input is watched: the coordinator sends nothing after the job
// frame and never half-closes, so any read that completes — data, EOF or
// error — means it is gone, and the attempt is cancelled rather than
// mined for nobody. That is also how a forked worker whose coordinator
// was SIGKILLed learns of it. The watching read is still pending when
// Serve returns; the caller releases it by closing rw's input (or
// exiting).
//
// All-or-nothing shard commit: no result byte is written until extraction
// has completed, so a cancelled or crashed worker leaves the coordinator
// with a read error instead of a torn or partial shard. A cancellation
// mid-extraction returns ctx's error without shipping anything.
//
// The job is the attempt's configuration: Serve mines with job.Version
// and ignores cfg.Version; cfg supplies only the worker's own settings
// (Workers, Fault). When job.Telemetry is set, the attempt records into a
// RunObs of its own (cfg.Obs is ignored too) and appends its telemetry
// frame ("SVTM") after the result frames: the metric snapshot, the
// collected spans, and the clock anchors the coordinator uses for skew
// correction — of this one attempt, so frames from one worker process
// never overlap.
func Serve(ctx context.Context, rw io.ReadWriter, base *kb.KB, lex *lexicon.Lexicon, cfg pipeline.Config, heartbeat time.Duration) error {
	return serve(ctx, rw, base, lex, cfg, heartbeat, attemptObs)
}

// attemptObs is the RunObs of one attempt whose job asks for telemetry:
// every sink live, plus the build-identification gauge.
func attemptObs(int) *obs.RunObs {
	o := obs.New()
	o.RegisterBuildInfo()
	return o
}

// serve is Serve with a say over the attempt's RunObs: workerObs is
// called once per job that asks for telemetry.
func serve(ctx context.Context, rw io.ReadWriter, base *kb.KB, lex *lexicon.Lexicon, cfg pipeline.Config, heartbeat time.Duration, workerObs func(shard int) *obs.RunObs) error {
	job, _, err := ReadJob(rw)
	if err != nil {
		return fmt.Errorf("dist: worker read job: %w", err)
	}
	cfg.Version, cfg.Obs = job.Version, nil
	if job.Telemetry {
		cfg.Obs = workerObs(job.Shard)
	}
	st := cfg.Obs.BeginShardTelemetry()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		var b [1]byte
		_, _ = rw.Read(b[:]) // whatever it returns, the coordinator is gone
		cancel()
	}()
	stopHeartbeat := startHeartbeater(rw, job.Shard, heartbeat)
	ext, err := pipeline.ExtractEvidence(ctx, job.Docs, base, lex, cfg, job.DocOffset)
	// The heartbeater must be fully stopped before the first result byte:
	// result frames and heartbeat frames share rw, and only strict
	// sequencing keeps the stream parseable.
	stopHeartbeat()
	if err != nil {
		return fmt.Errorf("dist: worker shard %d: %w", job.Shard, err)
	}
	// The shard totals pipeline.Run would add in its reduce step — the
	// worker runs only the map step, so it publishes them here and they
	// reach the coordinator as surveyor_fleet_* series.
	pm := cfg.Obs.PipelineMetrics()
	pm.Documents.Add(int64(ext.Consumed - len(ext.Quarantined)))
	pm.Sentences.Add(ext.Sentences)
	pm.Statements.Add(ext.Store.TotalStatements())
	n, err := WriteShardResult(rw, &ShardResult{
		Shard:       job.Shard,
		Consumed:    ext.Consumed,
		Sentences:   ext.Sentences,
		Quarantined: ext.Quarantined,
		Store:       ext.Store,
	})
	if err != nil {
		return fmt.Errorf("dist: worker shard %d write result: %w", job.Shard, err)
	}
	cfg.Obs.WireBytesEncoded().Add(n)
	if t := st.Export(); t != nil {
		if _, err := obs.EncodeTelemetry(rw, t); err != nil {
			return fmt.Errorf("dist: worker shard %d write telemetry: %w", job.Shard, err)
		}
	}
	return nil
}

// defaultHeartbeat is a worker's liveness emission interval when the
// caller names none. It must stay comfortably below the coordinator's
// livenessWindow.
const defaultHeartbeat = time.Second

// startHeartbeater emits a liveness frame for shard on w every interval
// until stopped. The returned stop is synchronous: it returns only after
// the emitter goroutine has exited, so no heartbeat write can interleave
// with the protocol frames written after it.
func startHeartbeater(w io.Writer, shard int, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = defaultHeartbeat
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if _, err := WriteHeartbeat(w, shard); err != nil {
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// SocketServerConfig tunes a standalone socket worker.
type SocketServerConfig struct {
	// Heartbeat is the liveness emission interval while mining. Zero
	// means 1s. It must be comfortably below the coordinator's liveness
	// window (30s).
	Heartbeat time.Duration
	// ErrLog receives per-connection serve errors (nil discards them); a
	// worker server outlives any single bad connection.
	ErrLog io.Writer
}

// ServeSocket runs a standalone worker server: accept connections on ln
// and run Serve on each until ctx is cancelled. Each connection carries
// exactly one shard attempt. Returns ctx.Err() on cancellation (after
// in-flight handlers finish) or the first accept error.
func ServeSocket(ctx context.Context, ln net.Listener, base *kb.KB, lex *lexicon.Lexicon, cfg pipeline.Config, scfg SocketServerConfig) error {
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dist: socket worker accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := Serve(ctx, conn, base, lex, cfg, scfg.Heartbeat); err != nil && scfg.ErrLog != nil {
				fmt.Fprintf(scfg.ErrLog, "surveyor: socket worker: %v\n", err)
			}
		}()
	}
}
