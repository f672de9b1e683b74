package testkit

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// fullRunObs builds a RunObs with every sink live, on a manual clock so
// trace timestamps are deterministic too.
func fullRunObs() *obs.RunObs {
	clock := &obs.ManualClock{}
	return &obs.RunObs{
		Metrics: obs.NewRegistry(),
		Tracer:  obs.NewTracer(clock),
		Clock:   clock,
	}
}

// TestObsInvariance is the observability half of the determinism contract:
// a run with every telemetry sink attached must be bit-identical to a run
// with none. Telemetry is write-only — if any instrumented code path read
// obs state back into the computation, this test would catch it.
func TestObsInvariance(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		w := NewWorld(seed, diffScale)
		for _, workers := range []int{1, 4} {
			cfg := pipeline.Config{Rho: 10, Workers: workers}
			plain := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)

			cfgObs := cfg
			cfgObs.Obs = fullRunObs()
			observed := pipeline.Run(w.Docs(), w.KB, w.Lex, cfgObs)

			if diffs := DiffResults(plain, observed); len(diffs) > 0 {
				t.Errorf("seed %d workers %d: obs-on run diverges from obs-off:\n  %s",
					seed, workers, strings.Join(diffs, "\n  "))
			}

			// Sanity: the telemetry actually recorded the run (an inert sink
			// would also pass the diff).
			// The live view counts each document as it finishes.
			o := cfgObs.Obs
			live := o.PipelineMetrics().DocSentences
			if live.Count() != int64(observed.Documents) {
				t.Errorf("seed %d workers %d: surveyor_doc_sentences counted %d documents, run had %d",
					seed, workers, live.Count(), observed.Documents)
			}
			if live.Sum() != float64(observed.Sentences) {
				t.Errorf("seed %d workers %d: surveyor_doc_sentences summed %v sentences, run had %d",
					seed, workers, live.Sum(), observed.Sentences)
			}
			if len(o.Tracer.Events()) == 0 {
				t.Errorf("seed %d workers %d: tracer recorded no spans", seed, workers)
			}
			var pairsBefore int64
			for _, m := range o.Metrics.Snapshot() {
				if m.Name == "surveyor_pairs_before_filter" {
					pairsBefore = int64(m.Value)
				}
			}
			if pairsBefore != int64(observed.PairsBeforeFilter) {
				t.Errorf("seed %d workers %d: sink saw %d pairs before filter, run had %d",
					seed, workers, pairsBefore, observed.PairsBeforeFilter)
			}
		}
	}
}

// TestMetricsLiveMidRun: /metrics is the live view of a run. A one-worker
// run held in its Fault hook at document k has finished exactly documents
// 0..k-1, and a scrape taken then must say so.
func TestMetricsLiveMidRun(t *testing.T) {
	const k = 7
	w := NewWorld(1, diffScale)
	reached, release := make(chan struct{}), make(chan struct{})
	cfg := pipeline.Config{Rho: 10, Workers: 1, Obs: fullRunObs(), Fault: func(i int, _ *corpus.Document) {
		if i == k {
			close(reached)
			<-release
		}
	}}
	done := make(chan *pipeline.Result, 1)
	go func() { done <- pipeline.Run(w.Docs(), w.KB, w.Lex, cfg) }()
	<-reached

	srv := httptest.NewServer(obs.Handler(cfg.Obs))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	close(release)
	res := <-done
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nsurveyor_doc_sentences_count %d\n", k); !strings.Contains(string(body), want) {
		t.Errorf("mid-run /metrics lacks %q:\n%s", strings.TrimSpace(want), body)
	}
	if got := cfg.Obs.PipelineMetrics().DocSentences.Count(); got != int64(res.Documents) || res.Documents <= k {
		t.Errorf("after the run surveyor_doc_sentences_count = %d, run had %d documents", got, res.Documents)
	}
}

// TestObsSameSinkTwice: reusing one RunObs across runs must not change the
// second run's results either (metrics and spans accumulate).
func TestObsSameSinkTwice(t *testing.T) {
	w := NewWorld(2, diffScale)
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	plain := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)

	cfgObs := cfg
	cfgObs.Obs = fullRunObs()
	pipeline.Run(w.Docs(), w.KB, w.Lex, cfgObs)
	second := pipeline.Run(w.Docs(), w.KB, w.Lex, cfgObs)
	if diffs := DiffResults(plain, second); len(diffs) > 0 {
		t.Errorf("second run with a reused sink diverges:\n  %s", strings.Join(diffs, "\n  "))
	}
}

// TestTimingsPopulated: with or without a sink, every phase timing in the
// result is non-negative, and Total covers the run. (Exact values are
// schedule-dependent and outside the contract.)
func TestTimingsPopulated(t *testing.T) {
	w := NewWorld(1, diffScale)
	res := pipeline.Run(w.Docs(), w.KB, w.Lex, pipeline.Config{Rho: 10, Workers: 2})
	tm := res.Timings
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"extraction", tm.Extraction}, {"grouping", tm.Grouping},
		{"em", tm.EM}, {"index", tm.Index}, {"total", tm.Total},
	} {
		if p.d < 0 {
			t.Errorf("%s timing is negative: %v", p.name, p.d)
		}
	}
	if tm.Total < tm.Extraction {
		t.Errorf("total (%v) < extraction (%v)", tm.Total, tm.Extraction)
	}
}
