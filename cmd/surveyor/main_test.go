package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/surveyor"
)

// buildSurveyor builds this package's binary into dir.
func buildSurveyor(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "surveyor")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building surveyor: %v\n%s", err, out)
	}
	return bin
}

// writeCorpus writes the generated seed-1 snapshot at scale as a JSONL
// corpus file in dir and returns its path.
func writeCorpus(t *testing.T, dir string, scale float64) string {
	t.Helper()
	path := filepath.Join(dir, "corpus.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	docs := corpus.NewGenerator(kb.Default(1), corpus.Table2Specs(), corpus.Config{Seed: 1, Scale: scale}).Generate().Documents
	if err := corpus.WriteJSONL(f, docs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// debugServerAddr reads a running surveyor's stderr up to the line
// containing until and returns the base URL its debug server announced on
// the way there.
func debugServerAddr(t *testing.T, stderr io.Reader, until string) string {
	t.Helper()
	addr := ""
	announce := regexp.MustCompile(`debug server on (http://[^/]+)/`)
	sc := bufio.NewScanner(stderr)
	for sc.Scan() && !strings.Contains(sc.Text(), until) {
		if m := announce.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
		}
	}
	if addr == "" || sc.Err() != nil {
		t.Fatalf("surveyor exited before printing %q (scan error: %v)", until, sc.Err())
	}
	return addr
}

// scrapeSkipped runs the built binary over corpus with the debug server up,
// waits for the run to finish, and returns the skipped-lines sample of
// /metrics and the body of /healthz.
func scrapeSkipped(t *testing.T, bin, corpus string, extra ...string) (metric, health string) {
	t.Helper()
	report := filepath.Join(t.TempDir(), "report.json")
	args := append([]string{"-in", corpus, "-lenient", "-rho", "1", "-debug-addr", "127.0.0.1:0",
		"-linger", "1m", "-report", report}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The server announces its address first, the report path once the run
	// is over; from then on the final state lingers for scraping.
	addr := debugServerAddr(t, stderr, "run report written")
	get := func(path string) string {
		client := http.Client{Timeout: 10 * time.Second}
		resp, err := client.Get(addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}
	for _, line := range strings.Split(get("/metrics"), "\n") {
		if strings.HasPrefix(line, "surveyor_corpus_skipped_lines_total ") {
			metric = line
		}
	}
	return metric, strings.TrimSpace(get("/healthz"))
}

// TestSkippedLinesBatchMatchesStream: the same malformed line must degrade
// /healthz and count on /metrics whether the pipeline streams the file (a
// plain -in run) or -epochs loads it whole first — the loader used to count
// it into the -report only.
func TestSkippedLinesBatchMatchesStream(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the surveyor binary")
	}
	dir := t.TempDir()
	bin := buildSurveyor(t, dir)
	corpus := filepath.Join(dir, "corpus.jsonl")
	lines := `{"URL":"u1","Domain":"com","Author":1,"Text":"Kittens are cute."}` + "\n{not json}\n" +
		`{"URL":"u2","Domain":"com","Author":2,"Text":"Spiders are not cute."}` + "\n"
	if err := os.WriteFile(corpus, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}

	streamMetric, streamHealth := scrapeSkipped(t, bin, corpus)
	batchMetric, batchHealth := scrapeSkipped(t, bin, corpus, "-epochs", "2")
	if batchMetric != "surveyor_corpus_skipped_lines_total 1" || batchMetric != streamMetric {
		t.Errorf("/metrics: batch %q, stream %q, want both to count the one skipped line", batchMetric, streamMetric)
	}
	if !strings.HasPrefix(batchHealth, "degraded") || batchHealth != streamHealth {
		t.Errorf("/healthz: batch %q, stream %q, want the same degraded line", batchHealth, streamHealth)
	}
}

// TestStreamFlagIsNoOp: an -in file is streamed whether or not -stream is
// given, and streaming the demo snapshot from a file prints what mining it
// in memory prints.
func TestStreamFlagIsNoOp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the surveyor binary")
	}
	dir := t.TempDir()
	bin := buildSurveyor(t, dir)
	path := writeCorpus(t, dir, 1)
	var want []byte
	for i, args := range [][]string{nil, {"-in", path}, {"-in", path, "-stream"}, {"-stream"}} {
		out, err := exec.Command(bin, append([]string{"-rho", "5", "-top", "3"}, args...)...).Output()
		if err != nil {
			t.Fatalf("surveyor %v: %v", args, err)
		}
		if i == 0 {
			want = out
		} else if !bytes.Equal(out, want) {
			t.Errorf("surveyor %v: stdout differs from the in-memory demo run", args)
		}
	}
	if len(want) == 0 {
		t.Fatal("demo run printed nothing")
	}
}

// TestStrictMalformedLineMinesPrefix: without -lenient a malformed line
// stops a plain -in run after mining the documents before it — the
// partial result is reported on stderr and in -report, and the exit status
// is 1.
func TestStrictMalformedLineMinesPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the surveyor binary")
	}
	dir := t.TempDir()
	bin := buildSurveyor(t, dir)
	path, report := filepath.Join(dir, "corpus.jsonl"), filepath.Join(dir, "report.json")
	lines := `{"URL":"u1","Domain":"com","Author":1,"Text":"Kittens are cute."}` + "\n{not json}\n" +
		`{"URL":"u2","Domain":"com","Author":2,"Text":"Spiders are not cute."}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var errb bytes.Buffer
	cmd := exec.Command(bin, "-in", path, "-rho", "1", "-report", report)
	cmd.Stderr = &errb
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("surveyor: %v, want exit status 1\n%s", err, errb.String())
	}
	if log := errb.String(); !strings.Contains(log, "run stopped early (corpus: line 2") || !strings.Contains(log, "documents=1 ") {
		t.Errorf("stderr does not report a one-document prefix stopped at line 2:\n%s", log)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Partial   bool `json:"partial"`
		Documents int  `json:"documents"`
	}
	if err := json.Unmarshal(data, &rep); err != nil || !rep.Partial || rep.Documents != 1 {
		t.Errorf("report %+v (%v), want partial over 1 document\n%s", rep, err, data)
	}
}

// TestRejectsOutOfRangeFlags: a negative -top used to panic slicing the
// entity list, a -version outside 1-4 silently mined with V4 while the
// report recorded the number given, a negative -rho, -workers, -epochs or
// -distribute silently meant "model everything" / "all cores" / "off", and
// an empty -dist-connect element was dialled as "" until every shard was
// lost to "missing address". All are usage errors, in the worker modes
// too, which read -version like the coordinator.
func TestRejectsOutOfRangeFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the surveyor binary")
	}
	bin := buildSurveyor(t, t.TempDir())
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-top", []string{"-rho", "5", "-top", "-1"}},
		{"-version", []string{"-rho", "5", "-version", "7"}},
		{"-version", []string{"-rho", "5", "-version", "0"}},
		{"-version", []string{"-rho", "5", "-version", "-3"}},
		{"-version", []string{"-dist-worker", "-version", "7"}},
		{"-version", []string{"-dist-listen", "127.0.0.1:0", "-version", "7"}},
		{"-rho", []string{"-rho", "-1"}},
		{"-workers", []string{"-rho", "5", "-workers", "-2"}},
		{"-epochs", []string{"-rho", "5", "-epochs", "-4"}},
		{"-distribute", []string{"-rho", "5", "-distribute", "-2"}},
		{"-dist-connect", []string{"-rho", "5", "-distribute", "2", "-dist-connect", ","}},
		{"-dist-connect", []string{"-rho", "5", "-distribute", "2", "-dist-connect", "a,,b"}},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		var out, errb bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, c.args...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("surveyor %v: %v, want exit status 1\n%s", c.args, err, errb.String())
			continue
		}
		if out.Len() != 0 {
			t.Errorf("surveyor %v printed results:\n%s", c.args, out.String())
		}
		if msg := errb.String(); !strings.HasPrefix(msg, c.flag+" must ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("surveyor %v: stderr %q, want one line starting %q", c.args, msg, c.flag+" must ")
		}
	}
}

// TestLingerPrintsFirst: -linger used to sleep ahead of the group dump, so
// a lingering run showed nothing on stdout until it was over. The whole
// answer must be out — the same bytes as without the debug server — while
// /healthz still answers.
func TestLingerPrintsFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the surveyor binary")
	}
	bin := buildSurveyor(t, t.TempDir())
	want, err := exec.Command(bin, "-rho", "5", "-top", "3").Output()
	if err != nil || len(want) == 0 {
		t.Fatalf("plain run: %v, %d bytes of stdout", err, len(want))
	}

	cmd := exec.Command(bin, "-rho", "5", "-top", "3", "-debug-addr", "127.0.0.1:0", "-linger", "30s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	addr := debugServerAddr(t, stderr, "lingering")

	// The process lingers with stdout open, so read exactly the bytes the
	// plain run printed; a dump still waiting for the sleep blocks here.
	got := make([]byte, len(want))
	read := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(stdout, got)
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("stdout while lingering differs from the plain run (read error: %v)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stdout not complete 10s into a 30s linger")
	}
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after the dump: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the dump: %s", resp.Status)
	}

	// /em is re-derived from the result: a row for every printed group, and
	// a trajectory for any of them — the last row is a sport group, which
	// the first-64-to-finish recorder used to leave without one.
	getJSON := func(path string, v any) int {
		t.Helper()
		resp, err := client.Get(addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	var sum obs.EMSnapshot
	if code := getJSON("/em", &sum); code != http.StatusOK {
		t.Fatalf("/em: status %d", code)
	}
	if groups := bytes.Count(want, []byte("  (pA=")); sum.Groups != groups || len(sum.Records) != groups {
		t.Fatalf("/em: %d groups, %d rows; the run printed %d groups", sum.Groups, len(sum.Records), groups)
	}
	last := sum.Records[len(sum.Records)-1]
	var rec obs.EMGroupRecord
	q := url.Values{"type": {last.Type}, "property": {last.Property}}
	if code := getJSON("/em?"+q.Encode(), &rec); code != http.StatusOK {
		t.Fatalf("/em?%s: status %d", q.Encode(), code)
	}
	if n := len(rec.Trajectory); n != last.Iterations || n == 0 ||
		rec.Trajectory[n-1].LogLikelihood != last.FinalLogLikelihood {
		t.Errorf("/em?%s: %d trajectory rows for %d iterations (final log-likelihood %v)",
			q.Encode(), n, last.Iterations, last.FinalLogLikelihood)
	}
	if code := getJSON("/em?type=city&property=no-such-property", &rec); code != http.StatusNotFound {
		t.Errorf("/em for an unmodelled group: status %d, want 404", code)
	}
}

// TestDistributeForkedMatchesBatch forks real -dist-worker children: their
// merged output must be the batch output byte for byte. (Retries over real
// processes are internal/dist's TestProcTransportRetryHealsToBatch.)
func TestDistributeForkedMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the surveyor binary")
	}
	bin := buildSurveyor(t, t.TempDir())
	run := func(args ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-rho", "5", "-top", "3"}, args...)...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("surveyor %v: %v\n%s", args, err, errb.String())
		}
		return out.String()
	}
	batch := run()
	if batch == "" {
		t.Fatal("batch run printed nothing")
	}
	if run("-distribute", "2") != batch {
		t.Error("-distribute 2 stdout differs from the batch run")
	}
}

// TestKilledCoordinatorReapsWorkers SIGKILLs a coordinator whose forked
// workers are mid-shard. Nothing tells them: they must notice their input
// end, abandon the shard (the cancellation each reports) and exit. The workers inherit the coordinator's
// stderr, so that pipe reaching EOF is every one of them having exited.
func TestKilledCoordinatorReapsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the surveyor binary")
	}
	dir := t.TempDir()
	bin := buildSurveyor(t, dir)
	path := writeCorpus(t, dir, 40)

	// No heartbeat may fall between the kill and a worker's exit: written to
	// the dead coordinator's pipe it would SIGPIPE the worker before it
	// reports why it stopped.
	cmd := exec.Command(bin, "-in", path, "-distribute", "2", "-workers", "1",
		"-dist-heartbeat", "1h", "-debug-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	var log strings.Builder
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		announce := regexp.MustCompile(`debug server on (http://[^/]+)/`)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			log.WriteString(sc.Text() + "\n")
			if m := announce.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
	}()
	defer func() {
		cmd.Process.Kill()
		<-drained
		cmd.Wait()
	}()

	// Once a shard's job bytes are counted, its worker holds all of the job
	// but the last pipe buffer, and has the whole shard still to mine.
	var base string
	select {
	case base = <-addr:
	case <-drained:
		t.Fatalf("coordinator exited before announcing its debug server\n%s", log.String())
	}
	client := http.Client{Timeout: 10 * time.Second}
	for mining := 0; mining < 2; time.Sleep(time.Millisecond) {
		resp, err := client.Get(base + "/cluster")
		if err != nil {
			t.Fatalf("GET /cluster: %v", err)
		}
		var view obs.ClusterSnapshot
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode /cluster: %v", err)
		}
		mining = 0
		for _, sh := range view.Shards {
			if sh.WireBytesOut > 0 {
				mining++
			}
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("-dist-worker children still running 5s after their coordinator was killed")
	}
	if n := strings.Count(log.String(), "context canceled"); n != 2 {
		t.Errorf("%d workers reported a cancelled shard, want 2\n%s", n, log.String())
	}
}

// TestEMBeforeResult: until the run's result exists, /em serves the zero
// summary (CI's obs-smoke greps it for "groups") and knows no group.
func TestEMBeforeResult(t *testing.T) {
	var final atomic.Pointer[surveyor.Result]
	h := serveEM(&final)
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/em", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"groups": 0`) {
		t.Errorf("/em before the result: %d %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/em?type=city&property=big", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/em?type=city&property=big before the result: status %d, want 404", rec.Code)
	}
}
