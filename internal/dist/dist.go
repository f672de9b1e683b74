// Package dist is the multi-process scale-out of the miner: a
// coordinator that splits the corpus into contiguous shards, ships each
// to a worker over the wire protocol in proto.go, merges the returned
// evidence deltas through evidence.Store.Merge in deterministic shard
// order, and runs grouping+EM once over the union. Because Merge is
// commutative and associative (the PR 1 algebra suite) and the reduce
// step is the batch pipeline's own reduce, verbatim
// (pipeline.ReduceStore), a distributed run is bit-identical to a
// single-process run over the same corpus — the testkit differential
// suite proves it for worker counts {1, 2, 4, 8}, with and without
// injected worker crashes.
//
// The coordinator records every fleet event through one nil-safe sink,
// the *obs.Cluster that RunObs.StartFleet returns; which /cluster field
// and which /metrics series an event moves is decided there.
package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/kb"
	"repro/internal/pipeline"
)

// Config configures a distributed mining run.
type Config struct {
	// Shards is the number of workers to launch; each receives one
	// contiguous corpus shard. Zero or negative means 1.
	Shards int
	// Transport launches the workers: ProcTransport forks children,
	// SocketTransport dials standalone worker servers, LocalTransport
	// runs them in-process on goroutines.
	Transport Transport
	// Pipeline is the coordinator-side pipeline config: Rho and EM drive
	// the reduce step, Obs receives the run's telemetry. Every job frame
	// carries Version, and asks its worker for telemetry when Obs is
	// set. The worker's own settings (threads per worker, Fault) live on
	// the transport's worker, not here.
	Pipeline pipeline.Config
	// Retry is the self-healing policy: attempt budget, backoff, and
	// per-shard deadline. The zero value keeps the historical
	// one-attempt-per-shard behavior.
	Retry RetryPolicy
}

// ShardError reports one shard whose retry budget was exhausted — every
// attempt crashed, was killed, spoke a broken protocol, timed out, or was
// cancelled. The run's result excludes exactly that shard's documents.
type ShardError struct {
	// Shard is the failed shard's index.
	Shard int
	// Docs is the number of corpus documents the shard covered (and the
	// partial result is therefore missing).
	Docs int
	// Attempts is the number of workers the scheduler burned on the shard
	// before giving up.
	Attempts int
	// Err is the final attempt's failure.
	Err error
}

func (e *ShardError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("dist: shard %d (%d docs, %d attempts): %v", e.Shard, e.Docs, e.Attempts, e.Err)
	}
	return fmt.Sprintf("dist: shard %d (%d docs): %v", e.Shard, e.Docs, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Mine runs the distributed map-reduce pipeline over docs: split into
// cfg.Shards contiguous shards (the same len*i/N arithmetic as the
// incremental miner's epoch split, so concatenated per-shard quarantine
// lists are globally sorted), mine every shard concurrently through the
// transport — retrying failed or hung attempts per cfg.Retry — merge the
// shipped evidence deltas in shard order, and reduce once.
//
// Within the retry budget the run self-heals: any transient fault
// pattern (worker crashes, dropped connections, hangs past the shard
// deadline) yields a result bit-identical to the batch pipeline over the
// same corpus, because the exactly-once shard commit guarantees each
// shard's delta is merged from exactly one complete attempt. Only budget
// exhaustion degrades the run: that shard's documents are absent — the
// all-or-nothing shard commit guarantees a lost worker contributed
// nothing — and the failure is reported as a ShardError. The returned
// error is non-nil only when the context was cancelled (ctx.Err(),
// alongside the partial result) or when every shard failed.
func Mine(ctx context.Context, docs []corpus.Document, base *kb.KB, cfg Config) (*pipeline.Result, []ShardError, error) {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	o := cfg.Pipeline.Obs
	fleet := o.StartFleet(shards)
	total := o.Phase("run")

	if cfg.Transport == nil {
		cfg.Transport = nilTransport{}
	}
	sc := newScheduler(cfg.Transport, cfg.Retry, fleet, Job{Version: cfg.Pipeline.Version, Telemetry: o != nil})

	// Map: drive every shard's retry loop concurrently. Each slot is
	// owned by exactly one goroutine, so the outcomes slice needs no
	// lock.
	outcomes := make([]outcome, shards)
	lo := make([]int, shards+1)
	for s := 0; s <= shards; s++ {
		lo[s] = len(docs) * s / shards
	}
	extract := o.Phase("extract")
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			outcomes[s] = sc.mineShard(ctx, s, lo[s], docs[lo[s]:lo[s+1]])
		}(s)
	}
	wg.Wait()
	// Reap every abandoned straggler before merging: after drain no
	// worker process, goroutine, or connection launched by this run is
	// still alive, and no commit cell can change (each was resolved or
	// sealed by its mineShard loop).
	sc.drain()
	extractDur := extract.End()

	// Reduce, part 1: fold the shipped deltas in shard order. Merge is
	// order-insensitive, but a fixed order keeps the schedule out of the
	// telemetry and mirrors the single-process worker flush.
	store := evidence.NewStore()
	var failed []ShardError
	var sentences int64
	var quarantined []pipeline.Quarantined
	documents := 0
	for s := 0; s < shards; s++ {
		oc := outcomes[s]
		if oc.err != nil {
			fleet.ShardFailed(s, oc.err)
			failed = append(failed, ShardError{Shard: s, Docs: lo[s+1] - lo[s], Attempts: oc.attempts, Err: oc.err})
			continue
		}
		merge := o.Phase("merge")
		store.Merge(oc.res.Store)
		fleet.ShardCommitted(s, oc.res.Consumed, len(oc.res.Quarantined),
			float64(merge.End())/float64(time.Millisecond))
		// Federate telemetry in the same deterministic shard order as the
		// store fold. Frames are best-effort: a missing or undecodable one
		// degrades to a rejection note, never to a shard failure — the
		// shard's evidence is already committed.
		fleet.ShardTelemetry(s, oc.tele, oc.teleErr)
		sentences += oc.res.Sentences
		quarantined = append(quarantined, oc.res.Quarantined...)
		documents += oc.res.Consumed - len(oc.res.Quarantined)
	}

	// Reduce, part 2: grouping + EM, bit-identical to the batch
	// reduce over the same store.
	res := pipeline.ReduceStore(store, base, cfg.Pipeline, pipeline.ReduceStats{
		Sentences:   sentences,
		Documents:   documents,
		Quarantined: quarantined,
	})
	res.Timings.Extraction = extractDur
	res.Timings.Total = total.End()

	if err := ctx.Err(); err != nil {
		return res, failed, err
	}
	if len(failed) == shards && shards > 0 && len(docs) > 0 {
		return res, failed, fmt.Errorf("dist: all %d shards failed: %w", shards, failed[0].Err)
	}
	return res, failed, nil
}

// nilTransport keeps a misconfigured run (no transport) failing with a
// typed per-shard error instead of a nil dereference.
type nilTransport struct{}

func (nilTransport) Start(context.Context, int, int) (Conn, error) {
	return nil, errors.New("dist: nil transport")
}
