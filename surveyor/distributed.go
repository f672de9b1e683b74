// Multi-process mining: the public face of internal/dist. A coordinator
// splits the corpus into contiguous shards and ships each to a worker —
// a child process re-executing this binary (DistributedOptions.Command),
// or an in-process goroutine worker when no command is configured — then
// merges the returned evidence deltas and models the union once. The
// result is bit-identical to Mine over the same documents.
package surveyor

import (
	"context"
	"io"
	"net"
	"time"

	"repro/internal/dist"
)

// DistributedOptions configures MineDistributed.
type DistributedOptions struct {
	// Workers is the number of worker processes (shards). Zero or negative
	// means 1.
	Workers int
	// Command launches one worker process: Command[0] is the executable,
	// the rest its arguments. The process must speak the worker protocol
	// on stdin/stdout — cmd/surveyor's -dist-worker mode does — and must
	// reconstruct the same knowledge base and lexicon as the coordinator.
	// Empty runs the workers in-process (goroutines speaking the same
	// protocol over in-memory pipes): the right default when the corpus
	// fits one machine and the win is CPU parallelism.
	Command []string
	// Connect lists socket worker endpoints ("host:port") running
	// ServeSocketWorker (`surveyor -dist-listen`). Non-empty selects the
	// TCP transport and takes precedence over Command: shards are dialed
	// out instead of forked out, with reconnect-and-backoff across the
	// endpoints.
	Connect []string
	// Retries is the total attempt budget per shard (first launch
	// included). Zero or one means no retry — the historical behavior.
	Retries int
	// RetryBackoff is the base delay before a shard's first retry,
	// doubled per further retry with seeded jitter. Zero means 50ms.
	RetryBackoff time.Duration
	// ShardDeadline bounds one shard attempt's wall time; a worker past
	// it is presumed hung and the shard reassigned. Zero disables the
	// deadline.
	ShardDeadline time.Duration
	// Seed derives the backoff jitter (retry and reconnect alike), so a
	// rerun replays the same retry schedule. cmd/surveyor passes its run
	// seed.
	Seed uint64
	// Stderr receives the worker processes' stderr (nil discards it).
	Stderr io.Writer
}

// ShardFailure reports one corpus shard lost to a worker failure after
// its retry budget was exhausted. The mined result excludes exactly that
// shard's documents.
type ShardFailure struct {
	// Shard is the failed shard's index in [0, Workers).
	Shard int
	// Docs is the number of documents the shard covered.
	Docs int
	// Attempts is the number of workers burned on the shard.
	Attempts int
	// Err is the underlying worker failure.
	Err error
}

// MineDistributed mines docs across opts.Workers workers, each extracting
// evidence from one contiguous corpus shard, and models the merged
// evidence once. On a healthy run — and, with a retry budget, under any
// transient fault pattern the budget absorbs — the result is
// bit-identical to MineContext over the same documents with the same
// Config.
//
// Workers that stay failed past their retry budget degrade the run
// instead of aborting it: each lost shard is reported as a ShardFailure
// and the result is exactly what MineContext would have produced over the
// corpus minus those shards' documents. The returned error is non-nil
// only on cancellation (alongside the partial result, as a *PartialError)
// or when every shard failed.
func (s *System) MineDistributed(ctx context.Context, docs []Document, opts DistributedOptions, cfg Config) (*Result, []ShardFailure, error) {
	s.registerPending()
	pcfg := s.pipelineConfig(cfg)
	var transport dist.Transport
	switch {
	case len(opts.Connect) > 0:
		transport = &dist.SocketTransport{Addrs: opts.Connect, Seed: opts.Seed}
	case len(opts.Command) > 0:
		transport = &dist.ProcTransport{Path: opts.Command[0], Args: opts.Command[1:], Stderr: opts.Stderr}
	default:
		transport = &dist.LocalTransport{Base: s.kb, Lex: s.lex, Pipeline: pcfg}
	}
	pres, shardErrs, err := dist.Mine(ctx, docs, s.kb, dist.Config{
		Shards:    opts.Workers,
		Transport: transport,
		Pipeline:  pcfg,
		Retry: dist.RetryPolicy{
			MaxAttempts:   opts.Retries,
			BaseBackoff:   opts.RetryBackoff,
			ShardDeadline: opts.ShardDeadline,
			Seed:          opts.Seed,
		},
	})
	res := &Result{sys: s, res: pres}
	var failures []ShardFailure
	for _, se := range shardErrs {
		failures = append(failures, ShardFailure{Shard: se.Shard, Docs: se.Docs, Attempts: se.Attempts, Err: se.Err})
	}
	if err != nil && ctx.Err() != nil {
		return res, failures, &PartialError{Result: res, Documents: pres.Documents, Err: err}
	}
	return res, failures, err
}

// ServeWorker runs one distributed-mining worker over a pipe pair: read
// the job from r, extract the shard's evidence (emitting a liveness
// frame on w every heartbeat; zero means 1s), ship the delta on w, and
// return. The attempt is cancelled if r ends or delivers anything
// further — the coordinator is gone. cmd/surveyor's hidden -dist-worker
// mode calls this on stdin/stdout; the system must hold the same
// knowledge base and lexicon the coordinator mined with. Of cfg only
// Workers applies: the pattern version and whether to record telemetry
// come with the job.
func (s *System) ServeWorker(ctx context.Context, r io.Reader, w io.Writer, cfg Config, heartbeat time.Duration) error {
	s.registerPending()
	rw := struct {
		io.Reader
		io.Writer
	}{r, w}
	return dist.Serve(ctx, rw, s.kb, s.lex, s.pipelineConfig(cfg), heartbeat)
}

// SocketWorkerOptions configures ServeSocketWorker.
type SocketWorkerOptions struct {
	// Heartbeat is the liveness emission interval while mining. Zero
	// means 1s.
	Heartbeat time.Duration
	// ErrLog receives per-connection serve errors (nil discards them).
	ErrLog io.Writer
}

// ServeSocketWorker runs a standalone socket worker server on ln until
// ctx is cancelled: each accepted connection carries one shard attempt,
// served exactly as ServeWorker serves a pipe pair. cmd/surveyor's
// -dist-listen mode calls this; coordinators reach it via
// DistributedOptions.Connect.
func (s *System) ServeSocketWorker(ctx context.Context, ln net.Listener, cfg Config, opts SocketWorkerOptions) error {
	s.registerPending()
	return dist.ServeSocket(ctx, ln, s.kb, s.lex, s.pipelineConfig(cfg), dist.SocketServerConfig{
		Heartbeat: opts.Heartbeat,
		ErrLog:    opts.ErrLog,
	})
}
