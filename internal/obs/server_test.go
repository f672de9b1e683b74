package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func populatedRunObs() *RunObs {
	clock := &ManualClock{}
	o := &RunObs{
		Metrics: NewRegistry(),
		Tracer:  NewTracer(clock),
		Clock:   clock,
	}
	pm := o.PipelineMetrics()
	span := o.Phase("extract")
	w := o.Worker(0)
	w.DocStart()
	clock.Advance(time.Millisecond)
	w.DocEnd(0, 2, 1)
	pm.DocSentences.Observe(2)
	w.Close("extract")
	pm.Documents.Add(4)
	span.End()
	pm.EMIterations.Observe(1)
	return o
}

func get(t *testing.T, srv *httptest.Server, path string) (string, *http.Response) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(body), resp
}

func TestDebugEndpoints(t *testing.T) {
	o := populatedRunObs()
	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	body, resp := get(t, srv, "/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE surveyor_documents_total counter",
		"surveyor_documents_total 4",
		`surveyor_em_iterations_bucket{le="+Inf"} 1`,
		"surveyor_doc_sentences_count 1",
		"surveyor_doc_sentences_sum 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	body, _ = get(t, srv, "/trace")
	var tf chromeFile
	if err := json.Unmarshal([]byte(body), &tf); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if len(tf.TraceEvents) != 3 {
		t.Errorf("/trace has %d events, want 3", len(tf.TraceEvents))
	}

	body, _ = get(t, srv, "/healthz")
	if strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}

	if body, _ = get(t, srv, "/"); !strings.Contains(body, "/debug/pprof/") {
		t.Error("index page missing pprof link")
	}
	for _, path := range []string{"/nonexistent", "/progress", "/debug/vars"} {
		if _, resp = get(t, srv, path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
	if body, _ = get(t, srv, "/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("pprof index not served")
	}
}

func TestStartDebugServer(t *testing.T) {
	o := populatedRunObs()
	ds, err := StartDebugServer("127.0.0.1:0", Handler(o))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get("http://" + ds.Addr + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
	if err := ds.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	var nilServer *DebugServer
	if err := nilServer.Close(); err != nil {
		t.Errorf("nil server close: %v", err)
	}
}

func TestHealthzDegraded(t *testing.T) {
	o := populatedRunObs()
	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	if body, _ := get(t, srv, "/healthz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthy run: /healthz = %q", body)
	}
	o.PipelineMetrics().QuarantinedDocs.Add(3)
	body, resp := get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("degraded /healthz status = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(body, "degraded") || !strings.Contains(body, "quarantined_docs=3") {
		t.Errorf("/healthz = %q, want degraded with quarantine count", body)
	}
	o.PipelineMetrics().SkippedLines.Add(7)
	if body, _ := get(t, srv, "/healthz"); !strings.Contains(body, "skipped_lines=7") {
		t.Errorf("/healthz = %q, want skipped-line count", body)
	}
}

// TestHealthzDegradedOnFailedShards: lost distributed shards degrade
// /healthz (still HTTP 200) exactly like quarantines and skipped lines.
func TestHealthzDegradedOnFailedShards(t *testing.T) {
	o := populatedRunObs()
	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	if body, _ := get(t, srv, "/healthz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthy run: /healthz = %q", body)
	}
	o.Metrics.Counter(MetricDistShardsFailed, "").Add(2)
	body, resp := get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("degraded /healthz status = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(body, "degraded") || !strings.Contains(body, "failed_shards=2") {
		t.Errorf("/healthz = %q, want degraded with failed-shard count", body)
	}
}

// TestClusterEndpoint: /cluster serves the coordinator's fleet view.
func TestClusterEndpoint(t *testing.T) {
	o := populatedRunObs()
	o.Cluster = NewCluster(o.Clock)
	o.Cluster.StartRun(2)
	o.Cluster.JobSent(0, 10, 0)
	o.Cluster.ShardWire(0, 128, 0)
	o.Cluster.ResultReceived(0, 256)
	o.Cluster.ShardCommitted(0, 10, 1, 0.5)
	o.Cluster.TelemetryAbsorbed(0, 7, time.Millisecond)
	o.Cluster.ShardFailed(1, io.ErrUnexpectedEOF)
	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	body, resp := get(t, srv, "/cluster")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("/cluster content type = %q", ct)
	}
	var snap ClusterSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/cluster: %v", err)
	}
	if snap.Workers != 2 || snap.ShardsDone != 1 || snap.ShardsLost != 1 {
		t.Errorf("/cluster summary = %+v", snap)
	}
	if s := snap.Shards[0]; s.Status != ShardDone || s.Spans != 7 || s.Telemetry != "ok" ||
		s.WireBytesOut != 128 || s.WireBytesIn != 256 {
		t.Errorf("/cluster shard 0 = %+v", s)
	}
	if s := snap.Shards[1]; s.Status != ShardLost || s.Failure == "" {
		t.Errorf("/cluster shard 1 = %+v", s)
	}

	if body, _ := get(t, srv, "/"); !strings.Contains(body, "/cluster") {
		t.Error("index page missing /cluster link")
	}
}

// TestBuildInfoMetric: RegisterBuildInfo publishes the build-identification
// gauge on /metrics.
func TestBuildInfoMetric(t *testing.T) {
	o := populatedRunObs()
	o.RegisterBuildInfo()
	srv := httptest.NewServer(Handler(o))
	defer srv.Close()
	body, _ := get(t, srv, "/metrics")
	if !strings.Contains(body, MetricBuildInfo+" 1") {
		t.Errorf("/metrics missing %s gauge in:\n%s", MetricBuildInfo, body)
	}
	bi := ReadBuild()
	if bi.GoVersion == "" || bi.Version == "" || bi.Revision == "" {
		t.Errorf("ReadBuild left fields empty: %+v", bi)
	}
}

// TestCloseGraceful asserts Close lets an in-flight scrape finish instead
// of dropping the connection: a pprof CPU profile held open across Close
// must still complete with a full response.
func TestCloseGraceful(t *testing.T) {
	ds, err := StartDebugServer("127.0.0.1:0", Handler(populatedRunObs()))
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ds.Addr + "/debug/pprof/profile?seconds=1")
		if err != nil {
			done <- result{err: err}
			return
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{status: resp.StatusCode, err: err}
	}()
	time.Sleep(100 * time.Millisecond) // let the scrape reach the handler
	if err := ds.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	r := <-done
	if r.err != nil || r.status != http.StatusOK {
		t.Errorf("in-flight scrape dropped by Close: status %d, err %v", r.status, r.err)
	}
}

func TestHandlerWithNilRunObs(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/trace", "/cluster", "/healthz"} {
		_, resp := get(t, srv, path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s with nil RunObs: status %d", path, resp.StatusCode)
		}
	}
}
