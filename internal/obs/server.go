package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// DebugServer is the live introspection endpoint of a run: Prometheus
// text metrics, expvar, net/http/pprof, and a JSON progress view. It is
// read-only — serving it cannot perturb pipeline results — and intended
// for operators (and the CI smoke test), not for untrusted networks.
type DebugServer struct {
	// Addr is the bound address (useful when the requested port was 0).
	Addr string

	srv *http.Server
	lis net.Listener
}

// Handler returns the debug mux for o: /metrics (Prometheus text),
// /progress (JSON), /trace (Chrome trace events), /em, /cluster (the
// distributed fleet view), /debug/vars (expvar), /debug/pprof/*,
// /healthz, and an HTML index at /.
func Handler(o *RunObs) http.Handler {
	if o == nil {
		o = &RunObs{} // every sink nil: each endpoint serves its empty form
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Metrics.WritePrometheus(w); err != nil {
			// The scrape connection broke mid-write; nothing to salvage.
			return
		}
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(o.Progress.Snapshot())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := o.Tracer.WriteChromeTrace(w); err != nil {
			// The scrape connection broke mid-write; nothing to salvage.
			return
		}
	})
	mux.HandleFunc("/em", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(o.EM.Snapshot())
	})
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(o.Cluster.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Degraded is still HTTP 200: the process is serving, but the fault
		// boundary has been absorbing damage (quarantined documents, skipped
		// corpus lines, or lost distributed shards) that an operator should
		// look at.
		quarantined := o.Metrics.Counter(MetricQuarantinedDocs,
			"documents quarantined by the per-document panic boundary").Value()
		skipped := o.Metrics.Counter(MetricSkippedLines,
			"corpus lines skipped by lenient streaming ingestion").Value()
		failedShards := o.Metrics.Counter(MetricDistShardsFailed,
			"shards lost to worker crashes or protocol errors").Value()
		if quarantined > 0 || skipped > 0 || failedShards > 0 {
			fmt.Fprintf(w, "degraded quarantined_docs=%d skipped_lines=%d failed_shards=%d\n",
				quarantined, skipped, failedShards)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/vars", expvarHandlerFor(o))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>surveyor debug</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus text</li>
<li><a href="/progress">/progress</a> — live run progress (JSON)</li>
<li><a href="/trace">/trace</a> — Chrome trace events (load in Perfetto)</li>
<li><a href="/em">/em</a> — EM convergence telemetry (JSON)</li>
<li><a href="/cluster">/cluster</a> — distributed fleet view: per-shard status, telemetry, skew (JSON)</li>
<li><a href="/debug/vars">/debug/vars</a> — expvar</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — pprof</li>
</ul></body></html>`)
	})
	return mux
}

// publishOnce guards the process-global expvar namespace: expvar.Publish
// panics on duplicate names, and a process may start several debug
// servers across runs (or tests).
var publishOnce sync.Once

// expvarHandlerFor returns the standard expvar page with the registry and
// progress published under "surveyor_metrics" / "surveyor_progress". The
// expvar vars capture o by reference; the first server's RunObs wins for
// the life of the process, matching expvar's global nature.
func expvarHandlerFor(o *RunObs) http.Handler {
	publishOnce.Do(func() {
		expvar.Publish("surveyor_metrics", expvar.Func(func() any { return o.Metrics.Snapshot() }))
		expvar.Publish("surveyor_progress", expvar.Func(func() any { return o.Progress.Snapshot() }))
	})
	return expvar.Handler()
}

// StartDebugServer binds addr (e.g. "localhost:8080" or ":0") and serves
// the debug mux on it until Close.
func StartDebugServer(addr string, o *RunObs) (*DebugServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	srv := &http.Server{Handler: Handler(o), ReadHeaderTimeout: 5 * time.Second}
	ds := &DebugServer{Addr: lis.Addr().String(), srv: srv, lis: lis}
	go srv.Serve(lis)
	return ds, nil
}

// shutdownTimeout bounds how long Close waits for in-flight scrapes.
const shutdownTimeout = 2 * time.Second

// Close shuts the server down gracefully, letting in-flight scrapes (a
// /metrics poll racing process exit) finish within a short timeout before
// falling back to a hard close.
func (s *DebugServer) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	//lint:allow ctxflow Close owns shutdown: the parent request context is already gone when the server stops
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		if cerr := s.srv.Close(); cerr != nil {
			return fmt.Errorf("obs: debug server close: %w", cerr)
		}
	}
	return nil
}
