package dist

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/wire/framing"
)

// TestBackoffDeterministicAndBounded pins the retry backoff contract:
// the delay for (shard, attempt) is a pure function of the policy and
// its seed — replayable across runs — and always lands in the jitter
// window [d/2, 3d/2) around the capped exponential d.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	policy := RetryPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: 42}
	sc := newScheduler(nil, policy, nil)
	again := newScheduler(nil, policy, nil)
	for shard := 0; shard < 4; shard++ {
		for attempt := 1; attempt <= 6; attempt++ {
			d := sc.backoff(shard, attempt)
			if d2 := again.backoff(shard, attempt); d2 != d {
				t.Fatalf("shard %d attempt %d: backoff not deterministic: %v vs %v", shard, attempt, d, d2)
			}
			raw := policy.BaseBackoff
			for i := 1; i < attempt && raw < policy.MaxBackoff; i++ {
				raw *= 2
			}
			if raw > policy.MaxBackoff {
				raw = policy.MaxBackoff
			}
			if d < raw/2 || d >= raw+raw/2 {
				t.Errorf("shard %d attempt %d: backoff %v outside jitter window [%v, %v)",
					shard, attempt, d, raw/2, raw+raw/2)
			}
		}
	}
	// Different shards must not march in lockstep: with this seed the
	// first-retry delays differ (a fixed-seed spot check, not a law).
	if sc.backoff(0, 1) == sc.backoff(1, 1) && sc.backoff(0, 1) == sc.backoff(2, 1) {
		t.Error("backoff jitter identical across three shards — seed mixing is broken")
	}
}

// TestBackoffZeroPolicyDefaults checks the documented zero-value
// defaults: 50ms base, 2s cap.
func TestBackoffZeroPolicyDefaults(t *testing.T) {
	sc := newScheduler(nil, RetryPolicy{}, nil)
	d := sc.backoff(0, 1)
	if d < defaultBaseBackoff/2 || d >= defaultBaseBackoff+defaultBaseBackoff/2 {
		t.Errorf("first retry backoff %v outside default window", d)
	}
	// Far past the doubling horizon the delay must stay under 1.5x the cap.
	if d := sc.backoff(0, 30); d >= defaultMaxBackoff+defaultMaxBackoff/2 {
		t.Errorf("attempt 30 backoff %v exceeds the jittered cap", d)
	}
}

// TestShardCommitExactlyOnce races many offers at one commit cell:
// exactly one must win, and the cell must report that winner to every
// later reader — the heart of the duplicate-discard guarantee.
func TestShardCommitExactlyOnce(t *testing.T) {
	c := &shardCommit{}
	const offers = 16
	wins := make(chan int, offers)
	var wg sync.WaitGroup
	for i := 0; i < offers; i++ {
		wg.Add(1)
		go func(attempt int) {
			defer wg.Done()
			if c.offer(shardOutcome{res: &ShardResult{Shard: attempt}}, attempt) {
				wins <- attempt
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var winners []int
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("%d offers won, want exactly 1 (winners %v)", len(winners), winners)
	}
	out, attempt, ok := c.result()
	if !ok || attempt != winners[0] || out.res.Shard != winners[0] {
		t.Fatalf("result() = (%+v, %d, %v), want the winning attempt %d", out.res, attempt, ok, winners[0])
	}
	if c.offer(shardOutcome{}, 99) {
		t.Fatal("offer after commit must lose")
	}
	if _, got, ok := c.sealOrResult(); !ok || got != winners[0] {
		t.Fatalf("sealOrResult after commit = (%d, %v), want the committed attempt", got, ok)
	}
}

// TestShardCommitSealed proves sealing is terminal: once the scheduler
// gives up on a shard, no straggler delivery can commit.
func TestShardCommitSealed(t *testing.T) {
	c := &shardCommit{}
	if _, _, ok := c.sealOrResult(); ok {
		t.Fatal("empty cell sealed with a result")
	}
	if c.offer(shardOutcome{res: &ShardResult{}}, 0) {
		t.Fatal("offer into a sealed cell must lose")
	}
	if _, _, ok := c.result(); ok {
		t.Fatal("sealed cell reports a committed result")
	}
}

// TestHeartbeatRoundTrip pins the liveness frame: a written heartbeat
// reads back through the generic frame reader with the SVHB magic and
// its shard index, and the decoder rejects malformed bodies.
func TestHeartbeatRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteHeartbeat(&buf, 7); err != nil {
		t.Fatalf("WriteHeartbeat: %v", err)
	}
	magic, body, _, err := framing.ReadFrameAny(&buf)
	if err != nil {
		t.Fatalf("ReadFrameAny: %v", err)
	}
	if magic != heartbeatMagic {
		t.Fatalf("magic %q, want %q", magic, heartbeatMagic)
	}
	shard, err := decodeHeartbeat(body)
	if err != nil || shard != 7 {
		t.Fatalf("decodeHeartbeat = (%d, %v), want shard 7", shard, err)
	}
	if _, err := decodeHeartbeat(append(body, 0)); err == nil {
		t.Error("trailing bytes decoded cleanly")
	}
	if _, err := decodeHeartbeat([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}); err == nil {
		t.Error("implausible shard decoded cleanly")
	}
}
