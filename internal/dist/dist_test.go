package dist_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/evidence"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/testkit"
	"repro/internal/wire"
	"repro/internal/wire/framing"
)

func testJob() *dist.Job {
	return &dist.Job{
		Shard:     3,
		DocOffset: 1207,
		Version:   extract.V2,
		Telemetry: true,
		Docs: []corpus.Document{
			{URL: "http://a.example/1", Domain: "a.example", Author: 12, Text: "the kitten is cute."},
			{URL: "http://b.example/2", Domain: "b.example", Author: 0, Text: ""},
			{URL: "", Domain: "", Author: 9000, Text: "spiders are not cute!"},
			{URL: "http://c.example/3", Domain: "c.example", Author: -7, Text: "a loader-legal negative author."},
		},
	}
}

func TestJobRoundTrip(t *testing.T) {
	job := testJob()
	var buf bytes.Buffer
	wn, err := dist.WriteJob(&buf, job)
	if err != nil {
		t.Fatalf("WriteJob: %v", err)
	}
	if wn != int64(buf.Len()) {
		t.Fatalf("WriteJob reported %d bytes, wrote %d", wn, buf.Len())
	}
	got, rn, err := dist.ReadJob(&buf)
	if err != nil {
		t.Fatalf("ReadJob: %v", err)
	}
	if rn != wn {
		t.Fatalf("ReadJob consumed %d bytes, frame is %d", rn, wn)
	}
	if got.Shard != job.Shard || got.DocOffset != job.DocOffset || got.Version != job.Version || got.Telemetry != job.Telemetry {
		t.Fatalf("header mismatch: got shard=%d offset=%d version=%d telemetry=%v",
			got.Shard, got.DocOffset, got.Version, got.Telemetry)
	}
	if len(got.Docs) != len(job.Docs) {
		t.Fatalf("got %d docs, want %d", len(got.Docs), len(job.Docs))
	}
	for i := range job.Docs {
		if got.Docs[i] != job.Docs[i] {
			t.Errorf("doc %d: got %+v want %+v", i, got.Docs[i], job.Docs[i])
		}
	}
}

func TestShardResultRoundTrip(t *testing.T) {
	store := evidence.NewStore()
	store.AddCounts(evidence.Key{Entity: kb.EntityID(7), Property: "cute"}, evidence.Counts{Pos: 41, Neg: 3})
	store.AddCounts(evidence.Key{Entity: kb.EntityID(2), Property: "scary"}, evidence.Counts{Pos: 1, Neg: 17})
	res := &dist.ShardResult{
		Shard:     2,
		Consumed:  57,
		Sentences: 421,
		Quarantined: []pipeline.Quarantined{
			{Doc: 1210, Reason: "panic: boom"},
			{Doc: 1219, Reason: "panic: worse"},
		},
		Store: store,
	}
	var buf bytes.Buffer
	wn, err := dist.WriteShardResult(&buf, res)
	if err != nil {
		t.Fatalf("WriteShardResult: %v", err)
	}
	got, rn, err := dist.ReadShardResult(&buf)
	if err != nil {
		t.Fatalf("ReadShardResult: %v", err)
	}
	if rn != wn {
		t.Fatalf("read %d bytes of a %d-byte message", rn, wn)
	}
	if got.Shard != res.Shard || got.Consumed != res.Consumed || got.Sentences != res.Sentences {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Quarantined) != len(res.Quarantined) {
		t.Fatalf("got %d quarantine records, want %d", len(got.Quarantined), len(res.Quarantined))
	}
	for i := range res.Quarantined {
		if got.Quarantined[i] != res.Quarantined[i] {
			t.Errorf("quarantine %d: got %+v want %+v", i, got.Quarantined[i], res.Quarantined[i])
		}
	}
	a, b := res.Store.Snapshot(), got.Store.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("store snapshots differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("store entry %d: got %+v want %+v", i, b[i], a[i])
		}
	}
}

func TestReadJobRejectsCorruption(t *testing.T) {
	var healthy bytes.Buffer
	if _, err := dist.WriteJob(&healthy, testJob()); err != nil {
		t.Fatal(err)
	}
	t.Run("wrong magic", func(t *testing.T) {
		raw := append([]byte(nil), healthy.Bytes()...)
		raw[0] ^= 0xff
		_, _, err := dist.ReadJob(bytes.NewReader(raw))
		if !errors.Is(err, framing.ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
		wantLayer(t, err, "dist: read job frame: ")
	})
	t.Run("flipped body bit", func(t *testing.T) {
		raw := append([]byte(nil), healthy.Bytes()...)
		raw[len(raw)/2] ^= 0x04
		_, _, err := dist.ReadJob(bytes.NewReader(raw))
		wantLayer(t, err, "dist: read job frame: ")
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < healthy.Len(); cut += 7 {
			_, _, err := dist.ReadJob(bytes.NewReader(healthy.Bytes()[:cut]))
			wantLayer(t, err, "dist: read job frame: ")
		}
	})
	// Forged bodies: shard, offset, version, telemetry and document count,
	// then whatever follows.
	for _, tc := range []struct {
		name string
		body []uint64
		want string
	}{
		// No bytes follow the count, so the capacity guard (a quarter of the
		// remaining bytes, plus one) admits one document; two must be
		// rejected by it, not by a later truncation error.
		{"doc count just over capacity", []uint64{0, 0, 0, 0, 2}, "document count 2 exceeds body capacity"},
		// 2^40 documents must be rejected before any allocation of that order.
		{"forged doc count", []uint64{0, 0, 0, 0, 1 << 40}, "exceeds body capacity"},
		{"trailing bytes", []uint64{0, 0, 0, 0, 0, 99}, "trailing bytes"},
		// One document whose URL claims 9 bytes, with none after it.
		{"truncated document", []uint64{0, 0, 0, 0, 1, 9}, "job document 0: wire: "},
		{"pattern version out of range", []uint64{0, 0, uint64(extract.V4) + 1, 0, 0}, "pattern version 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := framing.NewEncoder(16)
			for _, v := range tc.body {
				e.Uvarint(v)
			}
			var buf bytes.Buffer
			if _, err := framing.WriteFrame(&buf, "SVJB", e.Bytes()); err != nil {
				t.Fatal(err)
			}
			_, _, err := dist.ReadJob(&buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			wantLayer(t, err, "dist: ")
		})
	}
}

// TestReadResultRejectsCorruption: each forged result or heartbeat frame
// is rejected by the check named in its row, before anything is sized
// from the forged value.
func TestReadResultRejectsCorruption(t *testing.T) {
	uvarints := func(vs ...uint64) func(e *framing.Encoder) {
		return func(e *framing.Encoder) {
			for _, v := range vs {
				e.Uvarint(v)
			}
		}
	}
	cases := []struct {
		name  string
		magic string
		body  func(e *framing.Encoder)
		want  string
	}{
		{"wrong magic", "SVJB", uvarints(0, 0, 0, 0), "bad frame magic"},
		{"implausible heartbeat shard", "SVHB", uvarints(1 << 31), "implausible heartbeat shard"},
		{"implausible shard", "SVSR", uvarints(1<<31, 0, 0, 0), "implausible result header"},
		// shard, consumed, sentences, quarantine count; an empty record
		// still takes two bytes, so three records cannot fit in none.
		{"quarantine count just over capacity", "SVSR", uvarints(0, 0, 0, 3), "quarantine count 3 exceeds body capacity"},
		{"forged quarantine count", "SVSR", uvarints(0, 0, 0, 1<<40), "exceeds body capacity"},
		{"implausible quarantine document", "SVSR", func(e *framing.Encoder) {
			uvarints(0, 0, 0, 1, 1<<31)(e)
			e.String("")
		}, "implausible document"},
		{"trailing bytes", "SVSR", uvarints(0, 0, 0, 0, 7), "trailing bytes in result header"},
		{"missing store frame", "SVSR", uvarints(0, 0, 0, 0), "store frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := framing.NewEncoder(16)
			tc.body(e)
			var buf bytes.Buffer
			if _, err := framing.WriteFrame(&buf, tc.magic, e.Bytes()); err != nil {
				t.Fatal(err)
			}
			_, _, err := dist.ReadShardResult(&buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			wantLayer(t, err, "dist: ")
		})
	}
}

// wantLayer fails unless err reads prefix first: every error a decoder
// returns names the layer that returned it.
func wantLayer(t *testing.T, err error, prefix string) {
	t.Helper()
	if err == nil || !strings.HasPrefix(err.Error(), prefix) {
		t.Fatalf("err = %v, want prefix %q", err, prefix)
	}
}

// errShortWrite is what a shortWriter returns once its budget is spent.
var errShortWrite = errors.New("short write")

// shortWriter accepts n bytes, then fails.
type shortWriter struct{ n int }

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	m := w.n
	w.n = 0
	return m, errShortWrite
}

// TestFrameWritersReportShortWrites: every writer of a frame that crosses
// a process boundary, given a destination that fails at any byte offset,
// returns the failure (wrapped, not replaced) and counts exactly the bytes
// that went out. A writer that drops an error ships a torn frame as a
// whole one.
func TestFrameWritersReportShortWrites(t *testing.T) {
	store := evidence.NewStore()
	store.AddCounts(evidence.Key{Entity: kb.EntityID(7), Property: "cute"}, evidence.Counts{Pos: 41, Neg: 3})
	store.AddCounts(evidence.Key{Entity: kb.EntityID(2), Property: "scary"}, evidence.Counts{Pos: 1, Neg: 17})
	result := &dist.ShardResult{Shard: 2, Consumed: 57, Sentences: 421, Store: store,
		Quarantined: []pipeline.Quarantined{{Doc: 1210, Reason: "panic: boom"}}}
	tel := &obs.Telemetry{
		Metrics: []obs.Metric{{Kind: obs.KindCounter, Name: "surveyor_documents_total", Value: 41}},
		Spans:   []obs.SpanEvent{{Name: "extract", Cat: "phase", Dur: 5, Args: []obs.SpanArg{{Key: "docs", Value: 3}}}},
	}
	for _, tc := range []struct {
		name  string
		write func(w io.Writer) (int64, error)
	}{
		{"job", func(w io.Writer) (int64, error) { return dist.WriteJob(w, testJob()) }},
		{"shard result", func(w io.Writer) (int64, error) { return dist.WriteShardResult(w, result) }},
		{"heartbeat", func(w io.Writer) (int64, error) { return dist.WriteHeartbeat(w, 3) }},
		{"store", func(w io.Writer) (int64, error) { return wire.EncodeStore(w, store) }},
		{"telemetry", func(w io.Writer) (int64, error) { return obs.EncodeTelemetry(w, tel) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var full bytes.Buffer
			if n, err := tc.write(&full); err != nil || n != int64(full.Len()) {
				t.Fatalf("healthy write: %d bytes counted, %d written, err %v", n, full.Len(), err)
			}
			for cut := 0; cut < full.Len(); cut++ {
				n, err := tc.write(&shortWriter{n: cut})
				if !errors.Is(err, errShortWrite) || n != int64(cut) {
					t.Fatalf("destination failing at byte %d of %d: %d bytes counted, err %v", cut, full.Len(), n, err)
				}
			}
		})
	}
}

// TestMineMatchesBatch is the quick in-package differential check; the
// full matrix (worker counts, chaos, cancellation) lives in
// internal/testkit's distributed suite.
func TestMineMatchesBatch(t *testing.T) {
	w := testkit.NewWorld(11, 0.05)
	batch := pipeline.Run(w.Docs(), w.KB, w.Lex, pipeline.Config{Workers: 2})
	for _, shards := range []int{1, 3} {
		res, failed, err := dist.Mine(context.Background(), w.Docs(), w.KB, dist.Config{
			Shards:    shards,
			Transport: &dist.LocalTransport{Base: w.KB, Lex: w.Lex, Pipeline: pipeline.Config{Workers: 2}},
			Pipeline:  pipeline.Config{Workers: 2},
		})
		if err != nil || len(failed) != 0 {
			t.Fatalf("shards=%d: err=%v failed=%v", shards, err, failed)
		}
		if diffs := testkit.DiffResults(batch, res); len(diffs) != 0 {
			t.Fatalf("shards=%d: distributed result differs from batch:\n%s",
				shards, strings.Join(diffs, "\n"))
		}
	}
}

func TestMineReportsCrashedShard(t *testing.T) {
	w := testkit.NewWorld(12, 0.05)
	res, failed, err := dist.Mine(context.Background(), w.Docs(), w.KB, dist.Config{
		Shards: 4,
		Transport: &dist.LocalTransport{
			Base: w.KB, Lex: w.Lex, Pipeline: pipeline.Config{Workers: 1},
			Crash: func(shard int) bool { return shard == 2 },
		},
		Pipeline: pipeline.Config{Workers: 1},
	})
	if err != nil {
		t.Fatalf("a single lost shard must degrade, not abort: %v", err)
	}
	if len(failed) != 1 || failed[0].Shard != 2 {
		t.Fatalf("failed=%v, want exactly shard 2", failed)
	}
	if !errors.Is(&failed[0], dist.ErrInjectedCrash) {
		t.Fatalf("shard error %v must unwrap to the injected crash", &failed[0])
	}
	if res == nil || res.Documents == 0 {
		t.Fatal("healthy shards must still commit")
	}
	lo, hi := len(w.Docs())*2/4, len(w.Docs())*3/4
	want := len(w.Docs()) - (hi - lo)
	if res.Documents != want {
		t.Fatalf("partial result has %d documents, want %d (batch minus shard 2)", res.Documents, want)
	}
}

func TestMineAllShardsFailed(t *testing.T) {
	w := testkit.NewTinyWorld(5, 0.05)
	_, failed, err := dist.Mine(context.Background(), w.Docs(), w.KB, dist.Config{
		Shards: 2,
		Transport: &dist.LocalTransport{
			Base: w.KB, Lex: w.Lex,
			Crash: func(int) bool { return true },
		},
	})
	if err == nil {
		t.Fatal("all shards lost must surface an error")
	}
	if len(failed) != 2 {
		t.Fatalf("failed=%v, want both shards", failed)
	}
}

func TestMineCancelled(t *testing.T) {
	w := testkit.NewTinyWorld(6, 0.05)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, failed, err := dist.Mine(ctx, w.Docs(), w.KB, dist.Config{
		Shards:    2,
		Transport: &dist.LocalTransport{Base: w.KB, Lex: w.Lex},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancellation must still return the partial result")
	}
	// A pre-cancelled context may still let some shards finish (the
	// extraction loop checks ctx per document and a shard can be empty);
	// what is guaranteed is that every shard either committed fully or
	// failed — no torn shards.
	for _, f := range failed {
		if f.Err == nil {
			t.Fatalf("failed shard %d carries no error", f.Shard)
		}
	}
}

func TestRunWorkerOverPipes(t *testing.T) {
	// Drive Serve directly over a pipe and a buffer — the exact protocol
	// cmd/surveyor's -dist-worker mode speaks on stdin/stdout. The input
	// stays open until Serve returns: its end would mean "coordinator
	// gone" and cancel the attempt.
	w := testkit.NewTinyWorld(7, 0.1)
	in, jobW := io.Pipe()
	defer jobW.Close()
	go dist.WriteJob(jobW, &dist.Job{Shard: 0, DocOffset: 0, Docs: w.Docs()})
	var out bytes.Buffer
	rw := struct {
		io.Reader
		io.Writer
	}{in, &out}
	if err := dist.Serve(context.Background(), rw, w.KB, w.Lex, pipeline.Config{Workers: 2}, 0); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	res, _, err := dist.ReadShardResult(&out)
	if err != nil {
		t.Fatalf("ReadShardResult: %v", err)
	}
	if res.Consumed != len(w.Docs()) {
		t.Fatalf("consumed %d of %d", res.Consumed, len(w.Docs()))
	}
	ext, err := pipeline.ExtractEvidence(context.Background(), w.Docs(), w.KB, w.Lex, pipeline.Config{Workers: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ext.Store.Snapshot(), res.Store.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("shipped store has %d entries, direct extraction %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// ctxRecorder is a Transport that remembers the context of every attempt
// it starts.
type ctxRecorder struct {
	dist.Transport
	mu   sync.Mutex
	ctxs []context.Context
}

func (r *ctxRecorder) Start(ctx context.Context, shard, attempt int) (dist.Conn, error) {
	r.mu.Lock()
	r.ctxs = append(r.ctxs, ctx)
	r.mu.Unlock()
	return r.Transport.Start(ctx, shard, attempt)
}

// TestAttemptContextsEndWithTheRun: each attempt runs under a context of
// its own, derived from the run's and cancelled when the attempt ends, so
// no transport keeps a worker alive on the run's context after the
// attempt is over.
func TestAttemptContextsEndWithTheRun(t *testing.T) {
	w := testkit.NewTinyWorld(8, 0.05)
	rec := &ctxRecorder{Transport: &dist.LocalTransport{Base: w.KB, Lex: w.Lex}}
	if _, failed, err := dist.Mine(context.Background(), w.Docs(), w.KB, dist.Config{Shards: 3, Transport: rec}); err != nil || len(failed) != 0 {
		t.Fatalf("err=%v failed=%v", err, failed)
	}
	if len(rec.ctxs) != 3 {
		t.Fatalf("%d attempts started, want 3", len(rec.ctxs))
	}
	for i, ctx := range rec.ctxs {
		if ctx.Err() == nil {
			t.Errorf("attempt %d's context is still live after the run", i)
		}
	}
}

// TestServeReportsWriteFailures: a worker whose output fails anywhere,
// in its result frames or in the telemetry frame after them, returns the
// failure, never nil: its exit status is what tells the coordinator that
// the attempt did not ship everything its job asked for.
func TestServeReportsWriteFailures(t *testing.T) {
	w := testkit.NewTinyWorld(7, 0.05)
	job := &dist.Job{Telemetry: true, Docs: w.Docs()}
	serve := func(out io.Writer) error {
		in, jobW := io.Pipe()
		defer jobW.Close()
		go dist.WriteJob(jobW, job)
		rw := struct {
			io.Reader
			io.Writer
		}{in, out}
		return dist.Serve(context.Background(), rw, w.KB, w.Lex, pipeline.Config{Workers: 1}, time.Hour)
	}
	var full bytes.Buffer
	if err := serve(&full); err != nil {
		t.Fatalf("healthy serve: %v", err)
	}
	// The telemetry frame carries wall-clock spans, so its length varies by
	// a few bytes from run to run: stay clear of the last ones.
	last := full.Len() - 32
	for cut := 0; cut < last; cut += max(1, last/40) {
		if err := serve(&shortWriter{n: cut}); !errors.Is(err, errShortWrite) {
			t.Fatalf("output failing at byte %d of %d: err = %v", cut, full.Len(), err)
		}
	}
}

// TestSilentSocketWorkerFailsInsideLivenessWindow dials a fake worker that
// accepts, reads its job and then says nothing — no heartbeat, no result,
// no close. Every attempt that lands on it must fail within the liveness
// window instead of hanging, and the shard must commit on the live
// endpoint with the run equal to batch.
func TestSilentSocketWorkerFailsInsideLivenessWindow(t *testing.T) {
	defer dist.ShortenLivenessWindow(100 * time.Millisecond)()
	w := testkit.NewWorld(11, 0.05)
	cfg := pipeline.Config{Workers: 2}
	batch := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)

	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		return ln
	}
	silent, live := listen(), listen()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			conn, err := silent.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, _, err := dist.ReadJob(conn); err != nil {
				t.Errorf("silent worker read job: %v", err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		dist.ServeSocket(ctx, live, w.KB, w.Lex, cfg, dist.SocketServerConfig{})
	}()
	defer func() {
		silent.Close()
		cancel()
		wg.Wait()
	}()

	o := obs.New()
	reduceCfg := cfg
	reduceCfg.Obs = o
	start := time.Now()
	res, failed, err := dist.Mine(context.Background(), w.Docs(), w.KB, dist.Config{
		Shards:    2,
		Transport: &dist.SocketTransport{Addrs: []string{silent.Addr().String(), live.Addr().String()}, Seed: 1},
		Pipeline:  reduceCfg,
		Retry:     dist.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})
	if err != nil || len(failed) != 0 {
		t.Fatalf("err=%v failed=%v", err, failed)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("run took %v: the silent worker was waited on well past the liveness window", took)
	}
	if diffs := testkit.DiffResults(batch, res); len(diffs) != 0 {
		t.Errorf("run differs from batch:\n%s", strings.Join(diffs, "\n"))
	}
	// Shard 0's first attempt dials the silent endpoint, shard 1's the live one.
	if sv := o.Cluster.Snapshot().Shards[0]; sv.Attempts != 2 || len(sv.History) != 2 ||
		sv.History[0].Outcome != obs.AttemptFailed || !strings.Contains(sv.History[0].Cause, "timeout") {
		t.Errorf("shard 0 view %+v, want a timed-out first attempt and a committed second", sv)
	}
}

// refusedRetry is a transport whose first retry of every shard reaches
// no worker — Start itself fails, like a socket transport whose every
// dial was refused.
type refusedRetry struct{ dist.Transport }

func (r refusedRetry) Start(ctx context.Context, shard, attempt int) (dist.Conn, error) {
	if attempt == 1 {
		return nil, errors.New("no worker reachable")
	}
	return r.Transport.Start(ctx, shard, attempt)
}

// TestRetryReassignmentNeedsAStartedAttempt: each shard's first worker
// crashes, its first retry reaches nobody, its second retry commits. Two
// retries per shard, but only one of them handed the shard to a worker.
func TestRetryReassignmentNeedsAStartedAttempt(t *testing.T) {
	w := testkit.NewTinyWorld(5, 0.05)
	o := obs.New()
	const shards = 2
	_, failed, err := dist.Mine(context.Background(), w.Docs(), w.KB, dist.Config{
		Shards: shards,
		Transport: refusedRetry{&dist.LocalTransport{Base: w.KB, Lex: w.Lex,
			FailAttempt: func(_, attempt int) bool { return attempt == 0 }}},
		Pipeline: pipeline.Config{Obs: o},
		Retry:    dist.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	if err != nil || len(failed) != 0 {
		t.Fatalf("err=%v failed=%v", err, failed)
	}
	for _, m := range o.Metrics.Snapshot() {
		switch m.Name {
		case "surveyor_dist_shard_retries_total":
			if m.Value != 2*shards {
				t.Errorf("retries = %v, want %d", m.Value, 2*shards)
			}
		case "surveyor_dist_shard_reassignments_total":
			if m.Value != shards {
				t.Errorf("reassignments = %v, want %d: a retry that started no worker is not one", m.Value, shards)
			}
		}
	}
}

// TestHeartbeatForAnotherShardFailsAttempt: a worker that answers shard
// 0's job with a heartbeat naming shard 5 has a desynced stream; what
// follows it, however well-formed, must not commit.
func TestHeartbeatForAnotherShardFailsAttempt(t *testing.T) {
	w := testkit.NewTinyWorld(5, 0.05)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		job, _, err := dist.ReadJob(conn)
		if err != nil {
			t.Errorf("fake worker read job: %v", err)
			return
		}
		dist.WriteHeartbeat(conn, job.Shard+5)
		dist.WriteShardResult(conn, &dist.ShardResult{Shard: job.Shard, Store: evidence.NewStore()})
	}()
	_, failed, _ := dist.Mine(context.Background(), w.Docs(), w.KB, dist.Config{
		Shards:    1,
		Transport: &dist.SocketTransport{Addrs: []string{ln.Addr().String()}},
	})
	if len(failed) != 1 || !strings.Contains(failed[0].Err.Error(), "heartbeat for shard 5") {
		t.Fatalf("failed=%v, want the shard lost to the foreign heartbeat", failed)
	}
}
