package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"
)

// chromeFile mirrors the export shape for decoding in tests.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func decodeTrace(t *testing.T, tr *Tracer) chromeFile {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	return f
}

func TestTracerPhaseAndWorkerSpans(t *testing.T) {
	clock := &ManualClock{}
	tr := NewTracer(clock)
	o := &RunObs{Tracer: tr, Clock: clock}

	span := o.Phase("extract")
	wt := o.Worker(0)
	clock.Advance(time.Millisecond)
	wt.DocStart()
	clock.Advance(2 * time.Millisecond)
	wt.DocEnd(7, 3, 2)
	wt.Close("extract")
	clock.Advance(time.Millisecond)
	if d := span.End(); d != 4*time.Millisecond {
		t.Errorf("phase duration = %v, want 4ms", d)
	}

	f := decodeTrace(t, tr)
	if len(f.TraceEvents) != 3 { // doc + worker cover + phase
		t.Fatalf("got %d events, want 3: %+v", len(f.TraceEvents), f.TraceEvents)
	}
	byName := map[string]chromeEvent{}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", e.Name, e.Ph)
		}
		if e.Pid != 1 {
			t.Errorf("event %q pid = %d, want 1", e.Name, e.Pid)
		}
		byName[e.Name] = e
	}
	doc := byName["doc"]
	if doc.Ts != 1000 || doc.Dur != 2000 { // microseconds
		t.Errorf("doc span ts/dur = %g/%g, want 1000/2000", doc.Ts, doc.Dur)
	}
	if doc.Tid != 1 { // worker 0 renders on tid 1
		t.Errorf("doc tid = %d, want 1", doc.Tid)
	}
	if doc.Args["doc"] != 7 || doc.Args["sentences"] != 3 || doc.Args["statements"] != 2 {
		t.Errorf("doc args = %v", doc.Args)
	}
	phase := byName["extract"]
	if phase.Tid != phaseTid {
		t.Errorf("phase tid = %d, want %d", phase.Tid, phaseTid)
	}
	if phase.Ts != 0 || phase.Dur != 4000 {
		t.Errorf("phase ts/dur = %g/%g, want 0/4000", phase.Ts, phase.Dur)
	}
	if _, ok := byName["extract/worker"]; !ok {
		t.Error("missing the worker covering span")
	}
}

// TestEventsArgsSorted: every span the tracer records carries its args in
// key order. Telemetry frames encode them in this order, so it is part of
// a frame's bytes, and nothing sorts them after the recording sites.
func TestEventsArgsSorted(t *testing.T) {
	clock := &ManualClock{}
	o := &RunObs{Tracer: NewTracer(clock), Clock: clock}
	wt := o.Worker(0)
	wt.DocStart()
	wt.DocEnd(0, 3, 2)
	wt.Close("extract")
	for _, e := range o.Tracer.Events() {
		if len(e.Args) == 0 || !slices.IsSortedFunc(e.Args, func(a, b SpanArg) int { return strings.Compare(a.Key, b.Key) }) {
			t.Fatalf("span %q args missing or out of key order: %+v", e.Name, e.Args)
		}
	}
}

// TestTracerSampling pins the sampling policy: every document gets a span.
func TestTracerSampling(t *testing.T) {
	tr := NewTracer(&ManualClock{})
	wt := tr.worker(0)
	for i := 0; i < 9; i++ {
		wt.DocStart()
		wt.DocEnd(i, 1, 0)
	}
	wt.Close("extract")
	if got := len(tr.Events()); got != 10 { // 9 docs + cover span
		t.Errorf("event count = %d, want 10", got)
	}
}

// TestTracerPerWorkerCap trips the real cap: one document more than a
// worker buffer holds gets no span, everything before it is kept, and the
// covering span still counts every document.
func TestTracerPerWorkerCap(t *testing.T) {
	tr := NewTracer(&ManualClock{})
	wt := tr.worker(0)
	for i := 0; i <= perWorkerSpanCap; i++ {
		wt.DocStart()
		wt.DocEnd(i, 1, 0)
	}
	wt.Close("extract")
	evs := tr.Events()
	if got := len(evs); got != perWorkerSpanCap+1 { // capped docs + cover span
		t.Fatalf("event count = %d, want %d", got, perWorkerSpanCap+1)
	}
	if cover := evs[len(evs)-1]; cover.Cat != "worker" || cover.Args[0].Value != perWorkerSpanCap+1 {
		t.Errorf("cover span = %+v, want %d docs", cover, perWorkerSpanCap+1)
	}
}

func TestNilTracerWritesEmptyTrace(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Errorf("nil tracer output = %s", buf.String())
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil tracer output is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 0 {
		t.Errorf("nil tracer has %d events", len(f.TraceEvents))
	}
}
