package testkit

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// fullRunObs builds a RunObs with every sink live, on a manual clock so
// trace timestamps are deterministic too.
func fullRunObs() *obs.RunObs {
	clock := &obs.ManualClock{}
	return &obs.RunObs{
		Metrics:  obs.NewRegistry(),
		Tracer:   obs.NewTracer(clock),
		EM:       obs.NewEMRecorder(),
		Progress: obs.NewProgress(clock),
		Clock:    clock,
	}
}

// TestObsInvariance is the observability half of the determinism contract:
// a run with every telemetry sink attached must be bit-identical to a run
// with none. Telemetry is write-only — if any instrumented code path read
// obs state back into the computation, this test (and the obsflow
// analyzer) would catch it.
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
			o := cfgObs.Obs
			snap := o.Progress.Snapshot()
			if snap.DocumentsProcessed != int64(observed.Documents) {
				t.Errorf("seed %d workers %d: progress saw %d documents, run had %d",
					seed, workers, snap.DocumentsProcessed, observed.Documents)
			}
			if snap.Sentences != observed.Sentences {
				t.Errorf("seed %d workers %d: progress saw %d sentences, run had %d",
					seed, workers, snap.Sentences, observed.Sentences)
			}
			if em := o.EM.Snapshot(); em.Groups != int64(len(observed.Groups)) {
				t.Errorf("seed %d workers %d: EM telemetry saw %d groups, run had %d",
					seed, workers, em.Groups, len(observed.Groups))
			}
			if o.Tracer.EventCount() == 0 {
				t.Errorf("seed %d workers %d: tracer recorded no spans", seed, workers)
			}
			var pairsScanned int64
			for _, m := range o.Metrics.Snapshot() {
				if m.Name == "surveyor_grouping_pairs_scanned_total" {
					pairsScanned = int64(m.Value)
				}
			}
			if pairsScanned != int64(observed.DistinctPairs) {
				t.Errorf("seed %d workers %d: grouping scanned %d pairs, store had %d",
					seed, workers, pairsScanned, observed.DistinctPairs)
			}
		}
	}
}

// TestObsSameSinkTwice: reusing one RunObs across runs must not change the
// second run's results either (metrics accumulate, progress resets).
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
