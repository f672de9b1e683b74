package dist_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/testkit"
)

// helperWorld is the corpus world the helper worker rebuilds on its own,
// the way a forked surveyor worker rebuilds its knowledge base from -seed.
func helperWorld() *testkit.World { return testkit.NewTinyWorld(5, 0.05) }

// TestProcTransportRetryHealsToBatch mines every shard attempt in a child
// process: this test binary re-executed as a worker (the os/exec
// helper-process idiom; see TestHelperWorker). Each shard's first worker
// reads its job and crashes, so every shard commits on its retry — and
// the run must equal batch, with the telemetry the job asked for
// federated from the committed attempt.
func TestProcTransportRetryHealsToBatch(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	w := helperWorld()
	cfg := pipeline.Config{Workers: 1}
	batch := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)
	o := obs.New()
	reduceCfg := cfg
	reduceCfg.Obs = o
	res, failed, err := dist.Mine(context.Background(), w.Docs(), w.KB, dist.Config{
		Shards: 2,
		Transport: &dist.ProcTransport{Path: exe, Stderr: os.Stderr,
			Args: []string{"-test.run=^TestHelperWorker$", "--", "helper-worker", t.TempDir()}},
		Pipeline: reduceCfg,
		Retry:    dist.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})
	if err != nil || len(failed) != 0 {
		t.Fatalf("err=%v failed=%v", err, failed)
	}
	if diffs := testkit.DiffResults(batch, res); len(diffs) != 0 {
		t.Errorf("healed run differs from batch:\n%s", strings.Join(diffs, "\n"))
	}
	for _, sv := range o.Cluster.Snapshot().Shards {
		if sv.Attempts != 2 || len(sv.History) != 2 || sv.History[0].Outcome != obs.AttemptFailed ||
			sv.History[1].Outcome != obs.AttemptCommitted || sv.Telemetry != "ok" {
			t.Errorf("shard view %+v, want a failed attempt, then a committed one with telemetry ok", sv)
		}
	}
}

// TestHelperWorker is a worker process, not a test. Run as
// `<test binary> -test.run=^TestHelperWorker$ -- helper-worker DIR`, it
// serves one job on stdin/stdout, except that the first attempt at each
// shard reads its job and exits 3; DIR keeps one marker file per shard
// crashed so far. Without those arguments it returns at once.
func TestHelperWorker(t *testing.T) {
	args := flag.Args()
	if len(args) != 2 || args[0] != "helper-worker" {
		return
	}
	var jobFrame bytes.Buffer
	job, _, err := dist.ReadJob(io.TeeReader(os.Stdin, &jobFrame))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if f, err := os.OpenFile(filepath.Join(args[1], fmt.Sprint(job.Shard)), os.O_CREATE|os.O_EXCL, 0o644); err == nil {
		f.Close()
		os.Exit(3)
	}
	w := helperWorld()
	rw := struct {
		io.Reader
		io.Writer
	}{io.MultiReader(&jobFrame, os.Stdin), os.Stdout}
	if err := dist.Serve(context.Background(), rw, w.KB, w.Lex, pipeline.Config{Workers: 1}, 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}
