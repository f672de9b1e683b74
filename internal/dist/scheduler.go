package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/obs"
)

// RetryPolicy configures the self-healing half of the scheduler: how many
// workers may be burned per shard, how long to back off between them, and
// how long a single attempt may run before its worker is presumed hung
// and the shard reclaimed.
//
// The zero value reproduces the pre-retry scheduler exactly: one attempt
// per shard, no deadline — a failed worker loses its shard.
type RetryPolicy struct {
	// MaxAttempts is the total number of workers a shard may consume
	// (first launch included). Zero or one means no retry.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it. Zero means 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling. Zero means 2s.
	MaxBackoff time.Duration
	// ShardDeadline bounds one attempt's wall time; past it the attempt
	// is abandoned (its worker killed once the run drains) and the shard
	// rescheduled. Zero means no deadline.
	ShardDeadline time.Duration
	// Seed derives the per-(shard, attempt) backoff jitter. The same seed
	// yields the same backoff schedule on every run — the retry path is as
	// replayable as the mining itself.
	Seed uint64
}

// Defaults for RetryPolicy's zero duration fields.
const (
	defaultBaseBackoff = 50 * time.Millisecond
	defaultMaxBackoff  = 2 * time.Second
)

// ErrShardDeadline reports a shard attempt abandoned because its worker
// exceeded RetryPolicy.ShardDeadline. Match with errors.Is.
var ErrShardDeadline = errors.New("dist: shard deadline exceeded")

// shardOutcome is one successfully mined shard: the result and its
// optional telemetry frame (teleErr records a frame that arrived but
// failed validation — observability degrades, the shard does not).
type shardOutcome struct {
	res     *ShardResult
	tele    *obs.Telemetry
	teleErr error
}

// outcome is mineShard's verdict on one shard.
type outcome struct {
	shardOutcome
	attempts int
	err      error
}

// shardCommit is one shard's exactly-once commit cell. Any attempt —
// including one abandoned past its deadline whose worker delivers late —
// may offer a result; exactly the first offer before sealing wins, and
// every other delivery is discarded as a duplicate. Sealing happens when
// the scheduler gives up on the shard, so a result landing after budget
// exhaustion (but before Mine returns) still cannot split the run's view
// of the shard.
type shardCommit struct {
	mu        sync.Mutex
	sealed    bool
	committed bool
	out       shardOutcome
	attempt   int
}

// offer installs out as the shard's result unless one is already
// committed or the cell is sealed. Reports whether this offer won.
func (c *shardCommit) offer(out shardOutcome, attempt int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed || c.committed {
		return false
	}
	c.committed = true
	c.out = out
	c.attempt = attempt
	return true
}

// result returns the committed outcome, if any.
func (c *shardCommit) result() (shardOutcome, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out, c.attempt, c.committed
}

// sealOrResult atomically resolves the shard's fate when the scheduler is
// out of budget: if a late result committed in the meantime it is
// returned (the shard succeeded after all), otherwise the cell seals so
// no later delivery can be half-counted.
func (c *shardCommit) sealOrResult() (shardOutcome, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.committed {
		return c.out, c.attempt, true
	}
	c.sealed = true
	return shardOutcome{}, 0, false
}

// scheduler drives every shard of one distributed run through its retry
// loop and owns the cleanup of every worker connection it launched —
// abandoned stragglers included. One scheduler per Mine call.
type scheduler struct {
	transport Transport
	policy    RetryPolicy
	fleet     *obs.Cluster // the run's one observability sink; nil-safe

	wg   sync.WaitGroup
	mu   sync.Mutex
	live map[*attemptHandle]struct{}
}

// attemptHandle is the scheduler's kill switch for one launched attempt.
type attemptHandle struct {
	conn   Conn
	cancel context.CancelFunc
}

func newScheduler(t Transport, p RetryPolicy, fleet *obs.Cluster) *scheduler {
	return &scheduler{transport: t, policy: p, fleet: fleet, live: make(map[*attemptHandle]struct{})}
}

func (sc *scheduler) track(h *attemptHandle) {
	sc.mu.Lock()
	sc.live[h] = struct{}{}
	sc.mu.Unlock()
}

func (sc *scheduler) untrack(h *attemptHandle) {
	sc.mu.Lock()
	delete(sc.live, h)
	sc.mu.Unlock()
}

// drain kills every still-live attempt (abandoned stragglers above all)
// and waits for every attempt goroutine to finish. Mine calls it after
// the map phase so no worker process, goroutine, or connection outlives
// the run.
func (sc *scheduler) drain() {
	sc.mu.Lock()
	//lint:allow detmap teardown kill order; every live attempt is killed and nothing is merged here
	for h := range sc.live {
		h.cancel()
		h.conn.Kill()
	}
	sc.mu.Unlock()
	sc.wg.Wait()
}

// mineShard runs one shard to success, budget exhaustion, or
// cancellation. Every attempt is recorded in the cluster view's history;
// retries back off with seeded jitter and count toward the retry and
// reassignment metrics.
func (sc *scheduler) mineShard(ctx context.Context, shard, docOffset int, docs []corpus.Document) outcome {
	maxAttempts := sc.policy.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	commit := &shardCommit{}
	var lastErr error
	attempts := 0
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			sc.fleet.ShardRetrying(shard)
			if err := sleepCtx(ctx, sc.backoff(shard, attempt)); err != nil {
				lastErr = err
				break
			}
			// An abandoned earlier attempt may have delivered during the
			// backoff; its committed result makes a fresh launch pointless.
			if out, _, ok := commit.result(); ok {
				return outcome{shardOutcome: out, attempts: attempts}
			}
		}
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		attempts++
		err := sc.runAttempt(ctx, shard, attempt, docOffset, docs, commit)
		if err == nil {
			out, _, ok := commit.result()
			if !ok {
				// The attempt finished cleanly but its offer lost: the cell
				// was sealed or raced. Cannot happen while the loop owns the
				// cell, but fail closed rather than merge nothing silently.
				lastErr = fmt.Errorf("dist: shard %d attempt %d: result discarded with no commit", shard, attempt)
				continue
			}
			return outcome{shardOutcome: out, attempts: attempts}
		}
		lastErr = err
		end := obs.AttemptFailed
		if errors.Is(err, ErrShardDeadline) {
			end = obs.AttemptExpired
		}
		sc.fleet.ShardAttemptEnded(shard, attempt, end, err.Error())
	}
	// Out of budget (or cancelled). A straggler may still have committed
	// between the last failure and now — take its result; otherwise seal
	// the cell so nothing arriving later is half-counted.
	if out, _, ok := commit.sealOrResult(); ok {
		return outcome{shardOutcome: out, attempts: attempts}
	}
	return outcome{attempts: attempts, err: lastErr}
}

// runAttempt launches one worker for (shard, attempt) and waits for its
// protocol to finish or its deadline to expire. On deadline expiry the
// attempt is abandoned, not killed: its goroutine keeps the connection
// and may still deliver a late result into the commit cell, and drain()
// reaps it at the end of the run.
func (sc *scheduler) runAttempt(parent context.Context, shard, attempt, docOffset int, docs []corpus.Document, commit *shardCommit) error {
	actx, cancel := parent, context.CancelFunc(func() {})
	if sc.policy.ShardDeadline > 0 {
		actx, cancel = context.WithTimeout(parent, sc.policy.ShardDeadline)
	} else {
		actx, cancel = context.WithCancel(parent)
	}
	conn, err := sc.transport.Start(actx, shard, attempt)
	if err != nil {
		cancel()
		return fmt.Errorf("dist: shard %d attempt %d start: %w", shard, attempt, err)
	}
	h := &attemptHandle{conn: conn, cancel: cancel}
	sc.track(h)
	done := make(chan error, 1)
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		err := sc.attemptProtocol(conn, shard, attempt, docOffset, docs, commit)
		sc.untrack(h)
		done <- err
	}()
	select {
	case err := <-done:
		cancel()
		return err
	case <-actx.Done():
		if parent.Err() != nil {
			// The run itself was cancelled: kill the worker now and report
			// the cancellation. The goroutine unblocks on the broken pipes
			// and drain() waits for it.
			conn.Kill()
			return fmt.Errorf("dist: shard %d attempt %d: %w", shard, attempt, parent.Err())
		}
		// Shard deadline: abandon the attempt. Its worker keeps running —
		// for ProcTransport the expired context kills the child, but a
		// transport-agnostic straggler may still deliver, and the commit
		// cell will either take the late result (if nothing else committed)
		// or discard it as a duplicate.
		return fmt.Errorf("dist: shard %d attempt %d: %w after %v", shard, attempt, ErrShardDeadline, sc.policy.ShardDeadline)
	}
}

// attemptProtocol drives one worker through the wire protocol (the same
// frame sequence as the pre-retry scheduler) and offers the validated
// result to the shard's commit cell. A losing offer — this attempt was
// abandoned and another already committed — is counted and recorded as a
// duplicate, never merged.
func (sc *scheduler) attemptProtocol(conn Conn, shard, attempt, docOffset int, docs []corpus.Document, commit *shardCommit) error {
	fleet := sc.fleet
	// The send anchor precedes the job write so the worker's job-received
	// anchor falls inside the coordinator's [jobSent, resultRecv] window.
	fleet.JobSent(shard, len(docs), 0)
	wn, err := WriteJob(conn, &Job{Shard: shard, DocOffset: docOffset, Docs: docs})
	fleet.ShardWire(shard, wn, 0)
	var res *ShardResult
	if err == nil {
		var rn int64
		res, rn, err = readShardResult(conn, func(beat int) error {
			if beat != shard {
				return fmt.Errorf("dist: heartbeat for shard %d on this stream (desync)", beat)
			}
			fleet.ShardHeartbeat(shard)
			return nil
		})
		fleet.ResultReceived(shard, rn)
	}
	var tele *obs.Telemetry
	var teleErr error
	if err == nil {
		// Optional telemetry frame after the store frame: a clean EOF means
		// an old or obs-disabled worker, any other failure is recorded but
		// cannot un-commit the shard's evidence.
		var tn int64
		tele, tn, teleErr = obs.DecodeTelemetry(conn)
		fleet.ShardWire(shard, 0, tn)
		if errors.Is(teleErr, io.EOF) {
			tele, teleErr = nil, nil
		}
	}
	if err != nil {
		conn.Kill()
		if waitErr := conn.Wait(); waitErr != nil && waitErr != err {
			return fmt.Errorf("dist: shard %d: %w (worker: %v)", shard, err, waitErr)
		}
		return fmt.Errorf("dist: shard %d: %w", shard, err)
	}
	if waitErr := conn.Wait(); waitErr != nil {
		return fmt.Errorf("dist: shard %d worker exit: %w", shard, waitErr)
	}
	if res.Shard != shard {
		return fmt.Errorf("dist: shard %d: worker answered for shard %d", shard, res.Shard)
	}
	if res.Consumed > len(docs) {
		return fmt.Errorf("dist: shard %d: consumed %d of %d documents", shard, res.Consumed, len(docs))
	}
	if !commit.offer(shardOutcome{res: res, tele: tele, teleErr: teleErr}, attempt) {
		fleet.ShardAttemptEnded(shard, attempt, obs.AttemptDuplicate, "late result discarded: shard already committed")
		return nil
	}
	fleet.ShardAttemptEnded(shard, attempt, obs.AttemptCommitted, "")
	return nil
}

// backoff returns the delay before launching attempt (1-based retry
// index) of shard, per the policy's base, cap and seed.
func (sc *scheduler) backoff(shard, attempt int) time.Duration {
	base := sc.policy.BaseBackoff
	if base <= 0 {
		base = defaultBaseBackoff
	}
	ceil := sc.policy.MaxBackoff
	if ceil <= 0 {
		ceil = defaultMaxBackoff
	}
	seed := sc.policy.Seed ^
		uint64(shard)*0x9e3779b97f4a7c15 ^
		uint64(attempt)*0xbf58476d1ce4e5b9
	return jitteredBackoff(base, ceil, attempt, seed)
}

// jitteredBackoff is the one retry delay of the package (shard retries and
// socket redials): base doubled per retry n (1-based) up to ceil, scaled
// by a jitter factor in [0.5, 1.5) drawn from a fresh generator seeded
// purely by seed — deterministic across runs and goroutine schedules,
// per the repo's seeded-randomness discipline.
func jitteredBackoff(base, ceil time.Duration, n int, seed uint64) time.Duration {
	d := base
	for i := 1; i < n && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
