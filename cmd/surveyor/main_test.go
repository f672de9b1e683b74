package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

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
	addr := ""
	announce := regexp.MustCompile(`debug server on (http://[^/]+)/`)
	sc := bufio.NewScanner(stderr)
	for sc.Scan() && !strings.Contains(sc.Text(), "run report written") {
		if m := announce.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
		}
	}
	if addr == "" || sc.Err() != nil {
		t.Fatalf("surveyor %v exited before serving its final state (scan error: %v)", args, sc.Err())
	}
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
// /healthz and count on /metrics whether the corpus is loaded whole or
// streamed — the load-then-mine path used to count it into the -report only.
func TestSkippedLinesBatchMatchesStream(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the surveyor binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "surveyor")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building surveyor: %v\n%s", err, out)
	}
	corpus := filepath.Join(dir, "corpus.jsonl")
	lines := `{"URL":"u1","Domain":"com","Author":1,"Text":"Kittens are cute."}` + "\n{not json}\n" +
		`{"URL":"u2","Domain":"com","Author":2,"Text":"Spiders are not cute."}` + "\n"
	if err := os.WriteFile(corpus, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}

	batchMetric, batchHealth := scrapeSkipped(t, bin, corpus)
	streamMetric, streamHealth := scrapeSkipped(t, bin, corpus, "-stream")
	if batchMetric != "surveyor_corpus_skipped_lines_total 1" || batchMetric != streamMetric {
		t.Errorf("/metrics: batch %q, stream %q, want both to count the one skipped line", batchMetric, streamMetric)
	}
	if !strings.HasPrefix(batchHealth, "degraded") || batchHealth != streamHealth {
		t.Errorf("/healthz: batch %q, stream %q, want the same degraded line", batchHealth, streamHealth)
	}
}
