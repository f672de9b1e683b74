package obs

import (
	"testing"
	"time"
)

// TestNilRunObsStillMeasures: a nil RunObs must support the full pipeline
// call sequence — and Phase spans still return real durations, because
// Result.Timings needs them with observability off.
func TestNilRunObsStillMeasures(t *testing.T) {
	var o *RunObs
	span := o.Phase("extract")
	w := o.Worker(0)
	w.DocStart()
	w.DocEnd(0, 1, 1)
	w.Close("extract")
	pm := o.PipelineMetrics()
	pm.Documents.Add(1)
	pm.DocSentences.Observe(3)
	if d := span.End(); d < 0 {
		t.Errorf("span duration = %v", d)
	}
}

// TestPhaseDurationUsesInjectedClock: the RunObs clock is the single time
// source for phase spans.
func TestPhaseDurationUsesInjectedClock(t *testing.T) {
	clock := &ManualClock{}
	o := &RunObs{Clock: clock}
	span := o.Phase("em")
	clock.Advance(250 * time.Millisecond)
	if d := span.End(); d != 250*time.Millisecond {
		t.Errorf("duration = %v, want 250ms", d)
	}
}

// TestNewWiresSharedClock: New gives every component the same clock.
func TestNewWiresSharedClock(t *testing.T) {
	o := New()
	if o.Metrics == nil || o.Tracer == nil || o.Cluster == nil || o.Clock == nil {
		t.Fatalf("New left components nil: %+v", o)
	}
	if o.Tracer.clock != o.Clock || o.Cluster.clock != o.Clock {
		t.Error("tracer/cluster do not share the RunObs clock")
	}
}

// TestPipelineMetricsIdempotent: resolving the inventory twice returns the
// same underlying handles (same registry entries).
func TestPipelineMetricsIdempotent(t *testing.T) {
	o := &RunObs{Metrics: NewRegistry()}
	a := o.PipelineMetrics()
	b := o.PipelineMetrics()
	a.Documents.Add(2)
	if b.Documents.Value() != 2 {
		t.Error("PipelineMetrics resolved different counter handles")
	}
}
