package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"time"

	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Transport starts one worker per shard attempt and hands back the link
// to it. Every link is the same thing — checksummed frames over a duplex
// byte stream whose far end runs Serve — and the three implementations
// differ only in how the stream comes to exist: ProcTransport forks a
// child and uses its stdin/stdout (`surveyor -distribute`),
// SocketTransport dials a standalone worker server (`-dist-connect`), and
// LocalTransport runs Serve on a goroutine over in-memory pipes (the
// race-enabled differential suites and the benchmarks — same protocol
// bytes, no fork/exec noise).
//
// attempt is zero-based and increments each time the self-healing
// scheduler retries the shard on a fresh worker; transports may use it
// to pick a different endpoint (SocketTransport) or to thread chaos
// hooks (LocalTransport).
type Transport interface {
	Start(ctx context.Context, shard, attempt int) (Conn, error)
}

// Conn is the coordinator's end of one worker link. The coordinator
// writes one job frame and then only reads; it never half-closes the
// stream, because the worker takes any completed read after the job
// frame to mean its coordinator is gone.
type Conn interface {
	io.ReadWriter
	// Wait blocks until the worker is gone and returns its terminal error
	// (nil for a clean exit). Call after the stream is drained.
	Wait() error
	// Kill tears the worker down without waiting for a clean exit.
	Kill()
}

// writeTimeout bounds one Write of the job frame. Like livenessWindow it
// is armed on every stream that can take deadlines: TCP connections and
// the pipes to a child process. In-memory pipes cannot, and rely on the
// shard deadline alone.
const writeTimeout = 10 * time.Second

// livenessWindow is the longest the coordinator waits on one Read —
// heartbeats included — before declaring the worker dead. A variable
// only so the package's tests can shorten it; nothing else assigns it.
var livenessWindow = 30 * time.Second

// link is the one Conn: a read side, a write side, and what Wait and
// Kill mean for whatever is at the far end.
type link struct {
	r    io.Reader
	w    io.Writer
	wait func() error
	kill func()
}

func (l *link) Read(p []byte) (int, error) {
	if d, ok := l.r.(interface{ SetReadDeadline(time.Time) error }); ok {
		if err := d.SetReadDeadline(deadlineIn(livenessWindow)); err != nil && !errors.Is(err, os.ErrNoDeadline) {
			return 0, err
		}
	}
	return l.r.Read(p)
}

func (l *link) Write(p []byte) (int, error) {
	if d, ok := l.w.(interface{ SetWriteDeadline(time.Time) error }); ok {
		if err := d.SetWriteDeadline(deadlineIn(writeTimeout)); err != nil && !errors.Is(err, os.ErrNoDeadline) {
			return 0, err
		}
	}
	return l.w.Write(p)
}

func (l *link) Wait() error { return l.wait() }
func (l *link) Kill()       { l.kill() }

// deadlineIn converts a relative liveness bound into the absolute
// deadline the kernel wants. The wall-clock read is confined to link
// liveness — it can decide that a retry happens, never what any shard's
// evidence contains, so mining output stays bit-reproducible.
func deadlineIn(d time.Duration) time.Time {
	return time.Now().Add(d)
}

// --- child processes -------------------------------------------------------

// procWaitDelay bounds how long Wait blocks on a killed child's pipes
// after its context is cancelled — a wedged worker cannot hang the
// coordinator's shutdown path.
const procWaitDelay = 10 * time.Second

// ProcTransport launches each worker as a child process. The command must
// run Serve on its stdin/stdout (cmd/surveyor's hidden -dist-worker mode
// does); stderr passes through to Stderr for debuggability. The child's
// stdin stays open for the life of the attempt, so end-of-input is how a
// child learns that its coordinator died without killing it.
type ProcTransport struct {
	// Path is the worker executable.
	Path string
	// Args are the worker's command-line arguments.
	Args []string
	// Stderr receives the workers' stderr streams (nil discards them).
	Stderr io.Writer
}

// Start implements Transport.
func (t *ProcTransport) Start(ctx context.Context, shard, attempt int) (Conn, error) {
	cmd := exec.CommandContext(ctx, t.Path, t.Args...)
	cmd.Stderr = t.Stderr
	// A cancelled attempt kills the child (CommandContext's default); the
	// delay keeps a wedged child's pipes from blocking Wait forever.
	cmd.WaitDelay = procWaitDelay
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("dist: shard %d stdin: %w", shard, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("dist: shard %d stdout: %w", shard, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: shard %d start: %w", shard, err)
	}
	// Kill's error is "already exited": Wait reports what matters.
	return &link{r: stdout, w: stdin, wait: cmd.Wait, kill: func() { _ = cmd.Process.Kill() }}, nil
}

// --- standalone socket workers ---------------------------------------------

// Dial bounds of the socket transport.
const (
	connectTimeout  = 5 * time.Second // one dial
	connectAttempts = 3               // dials one Start may burn, rotating through Addrs
	connectBackoff  = 100 * time.Millisecond
)

// SocketTransport launches shard attempts over TCP connections to
// standalone worker servers (ServeSocket / `surveyor -dist-listen`), one
// connection per attempt. The endpoint for (shard, attempt) rotates
// through Addrs, so a retry after a worker failure naturally moves the
// shard to a different host when more than one is configured.
type SocketTransport struct {
	// Addrs are the worker endpoints ("host:port"). At least one is
	// required.
	Addrs []string
	// ConnectBackoff is the base delay between dial attempts, doubled per
	// attempt up to 8x and jittered from Seed. Zero means 100ms.
	ConnectBackoff time.Duration
	// Seed derives the dial-backoff jitter, like RetryPolicy.Seed.
	Seed uint64
}

// Start implements Transport: dial an endpoint for (shard, attempt),
// reconnecting with backoff across Addrs.
func (t *SocketTransport) Start(ctx context.Context, shard, attempt int) (Conn, error) {
	if len(t.Addrs) == 0 {
		return nil, errors.New("dist: socket transport: no worker addresses")
	}
	base := t.ConnectBackoff
	if base <= 0 {
		base = connectBackoff
	}
	var lastErr error
	for try := 0; try < connectAttempts; try++ {
		if try > 0 {
			seed := t.Seed ^ uint64(shard)*0x9e3779b97f4a7c15 ^
				uint64(attempt)*0xbf58476d1ce4e5b9 ^ uint64(try)*0x94d049bb133111eb
			if err := sleepCtx(ctx, jitteredBackoff(base, 8*base, try, seed)); err != nil {
				return nil, fmt.Errorf("dist: shard %d dial: %w", shard, err)
			}
		}
		// Rotate through the endpoints: a retry (attempt+1) or a failed
		// dial (try+1) moves to the next worker host.
		addr := t.Addrs[(shard+attempt+try)%len(t.Addrs)]
		d := net.Dialer{Timeout: connectTimeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		// The server closes its end after the last frame and has no exit
		// status to collect, so waiting and killing are both "hang up".
		hangUp := func() error { _ = conn.Close(); return nil }
		return &link{r: conn, w: conn, wait: hangUp, kill: func() { _ = hangUp() }}, nil
	}
	return nil, fmt.Errorf("dist: shard %d: all %d dials failed: %w", shard, connectAttempts, lastErr)
}

// --- in-process workers ----------------------------------------------------

// ErrInjectedCrash is the terminal error of a LocalTransport worker the
// Crash/FailAttempt hooks selected — the in-process stand-in for a
// killed child process: the output pipe breaks before any result frame
// is written.
var ErrInjectedCrash = errors.New("dist: injected worker crash")

// ErrInjectedDrop is the terminal error of a LocalTransport worker whose
// CutResult hook fired: the connection breaks mid-result-frame, leaving
// the coordinator with a torn read.
var ErrInjectedDrop = errors.New("dist: injected connection drop")

// errKilled is what both pipe ends of a killed LocalTransport worker
// report.
var errKilled = errors.New("dist: worker killed")

// LocalTransport runs each worker as a goroutine running Serve over
// in-memory pipes. Used by the differential suites (every schedule runs
// under the race detector) and by the distributed benchmarks and the
// ledger of bench/ (process-free, so the codec and coordination costs are
// measured without fork/exec noise).
//
// The chaos hooks (Crash, FailAttempt, Hold, CutResult) are the
// deterministic stand-ins for the fleet failure modes of the paper's
// 40TB run: dead machines, transient crashes, stragglers past the
// deadline, and dropped connections. All are optional.
type LocalTransport struct {
	// Base and Lex are the worker-side knowledge base and lexicon — the
	// same immutable structures every worker process would build from the
	// shared seed.
	Base *kb.KB
	Lex  *lexicon.Lexicon
	// Pipeline is the worker-side extraction config: Workers as threads
	// per worker, Fault for chaos injection. Version and Obs come from
	// each job, as in every worker.
	Pipeline pipeline.Config
	// Crash, when non-nil, selects shards whose worker dies on every
	// attempt before shipping its result — a permanently dead machine.
	// The worker still consumes its job, then breaks the pipe.
	Crash func(shard int) bool
	// FailAttempt, when non-nil, selects (shard, attempt) pairs whose
	// worker dies like Crash — a transient fault the retry budget can
	// heal.
	FailAttempt func(shard, attempt int) bool
	// Hold, when non-nil, returns a channel the worker blocks on before
	// writing its result (nil means no hold) — a straggler the shard
	// deadline reclaims, whose late result must be discarded exactly
	// once. The held worker has already finished extraction; closing the
	// channel releases the frames.
	Hold func(shard, attempt int) <-chan struct{}
	// CutResult, when non-nil, returns the byte offset after which the
	// worker's result stream breaks (0 means no cut) — a connection
	// dropped mid-frame.
	CutResult func(shard, attempt int) int64
	// OnServe, when non-nil, is called as each worker attempt starts
	// serving — a deterministic sequencing point for the chaos tests.
	OnServe func(shard, attempt int)
	// WorkerObs, when non-nil, builds the RunObs of each attempt whose
	// job asks for telemetry, in place of a fresh obs.New — a hook for
	// tests that need a manual clock or a metrics-only registry. It must
	// return a new RunObs per call; whether a frame ships is the job's
	// decision, not this hook's.
	WorkerObs func(shard int) *obs.RunObs
}

// Start implements Transport.
func (t *LocalTransport) Start(ctx context.Context, shard, attempt int) (Conn, error) {
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := t.serve(ctx, shard, attempt, jobR, resW)
		// Break both pipe ends with the terminal error so a blocked
		// coordinator read fails like a closed stdout would.
		resW.CloseWithError(err)
		jobR.CloseWithError(err)
		done <- err
	}()
	return &link{r: resR, w: jobW,
		wait: func() error { return <-done },
		kill: func() {
			jobW.CloseWithError(errKilled)
			resR.CloseWithError(errKilled)
		}}, nil
}

// serve runs one worker attempt: Serve over the pipes — or fail the way
// its chaos hooks dictate.
func (t *LocalTransport) serve(ctx context.Context, shard, attempt int, r io.Reader, w io.Writer) error {
	if t.OnServe != nil {
		t.OnServe(shard, attempt)
	}
	if (t.Crash != nil && t.Crash(shard)) ||
		(t.FailAttempt != nil && t.FailAttempt(shard, attempt)) {
		// Drain the job like a real worker that dies mid-mining, then
		// break the pipe without writing a result frame.
		if _, _, err := ReadJob(r); err != nil {
			return err
		}
		return ErrInjectedCrash
	}
	if t.CutResult != nil {
		if cut := t.CutResult(shard, attempt); cut > 0 {
			w = &cutWriter{w: w, budget: cut}
		}
	}
	if t.Hold != nil {
		if ch := t.Hold(shard, attempt); ch != nil {
			w = &holdWriter{w: w, release: ch}
		}
	}
	workerObs := t.WorkerObs
	if workerObs == nil {
		workerObs = attemptObs
	}
	return serve(ctx, struct {
		io.Reader
		io.Writer
	}{r, w}, t.Base, t.Lex, t.Pipeline, 0, workerObs)
}

// cutWriter passes budget bytes through, then fails every write — the
// in-process stand-in for a TCP connection dropped mid-frame.
type cutWriter struct {
	w      io.Writer
	budget int64
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if c.budget <= 0 {
		return 0, ErrInjectedDrop
	}
	if int64(len(p)) > c.budget {
		n, _ := c.w.Write(p[:c.budget])
		c.budget = 0
		return n, ErrInjectedDrop
	}
	c.budget -= int64(len(p))
	return c.w.Write(p)
}

// holdWriter blocks the first write until release closes — a straggler
// worker that finishes mining but delivers its result late.
type holdWriter struct {
	w       io.Writer
	release <-chan struct{}
	held    bool
}

func (h *holdWriter) Write(p []byte) (int, error) {
	if !h.held {
		<-h.release
		h.held = true
	}
	return h.w.Write(p)
}
