package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"
)

// Tracer collects complete ("ph":"X") spans for phases, workers, and
// per-document loops, and exports them as Chrome trace-event JSON — the
// format Perfetto and chrome://tracing load directly.
//
// Every span has one shape from the moment it is recorded: the SpanEvent
// that Events hands out and a worker's telemetry frame ships, args
// already in key order. Phase spans are appended under a mutex (there are
// a handful per run). Worker-loop spans are buffered in worker-owned
// WorkerTrace handles and folded in once per worker, so the hot path never
// contends on the tracer. Event volume is bounded: each worker keeps at
// most perWorkerSpanCap document spans.
type Tracer struct {
	clock Clock

	mu     sync.Mutex
	events []SpanEvent
	procs  map[int]string // foreign pid → process label, for trace metadata
}

// perWorkerSpanCap bounds the document spans buffered per worker.
const perWorkerSpanCap = 1 << 13

// NewTracer returns a tracer reading timestamps from clock (nil selects
// the shared system clock).
func NewTracer(clock Clock) *Tracer {
	return &Tracer{clock: clockOrDefault(clock)}
}

// tid values: phases render on thread 0, worker w on thread w+1.
const phaseTid = 0

// Process tracks of a stitched distributed trace: the coordinator's own
// spans render on pid 1, and shard s's worker spans on WorkerPid(s) — a
// distinct track per worker process, skew-corrected onto the
// coordinator's clock.
const CoordinatorPid = 1

// WorkerPid returns the trace process id of shard's worker.
func WorkerPid(shard int) int { return shard + 2 }

// append folds events into the shared buffer.
func (t *Tracer) append(evs ...SpanEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, evs...)
	t.mu.Unlock()
}

// WorkerTrace is one extraction worker's write-only telemetry handle: a
// worker-owned span buffer. Document spans are appended without locks and
// folded into the tracer once, with one span covering the worker's whole
// loop, when the worker calls Close. Every timestamp is read from the
// tracer's clock. Methods are nil-safe; the pipeline holds one per worker
// goroutine.
type WorkerTrace struct {
	tracer    *Tracer
	tid       int64
	loopStart time.Duration
	start     time.Duration
	docs      int64
	events    []SpanEvent
}

// worker returns the handle of worker id (zero-based), its loop started
// now.
func (t *Tracer) worker(id int) *WorkerTrace {
	if t == nil {
		return nil
	}
	return &WorkerTrace{tracer: t, tid: int64(id) + 1, loopStart: t.clock.Now()}
}

// DocStart marks the beginning of one document. Once the buffer holds
// perWorkerSpanCap spans, documents are counted but not spanned.
func (wt *WorkerTrace) DocStart() {
	if wt == nil || len(wt.events) >= perWorkerSpanCap {
		return
	}
	wt.start = wt.tracer.clock.Now()
}

// DocEnd closes the document opened by the last DocStart with its
// sentence and statement counts.
func (wt *WorkerTrace) DocEnd(doc int, sentences, statements int64) {
	if wt == nil {
		return
	}
	wt.docs++
	if len(wt.events) >= perWorkerSpanCap {
		return
	}
	now := wt.tracer.clock.Now()
	wt.events = append(wt.events, SpanEvent{
		Name: "doc", Cat: "doc", Tid: wt.tid, Start: wt.start, Dur: now - wt.start,
		Args: []SpanArg{{"doc", int64(doc)}, {"sentences", sentences}, {"statements", statements}},
	})
}

// Close folds the buffered spans, plus one covering span for the worker's
// whole loop, into the tracer. Call once, when the worker's loop exits.
func (wt *WorkerTrace) Close(phase string) {
	if wt == nil {
		return
	}
	wt.events = append(wt.events, SpanEvent{
		Name: phase + "/worker", Cat: "worker", Tid: wt.tid,
		Start: wt.loopStart, Dur: wt.tracer.clock.Now() - wt.loopStart, Args: []SpanArg{{"docs", wt.docs}},
	})
	wt.tracer.append(wt.events...)
	wt.events = nil
}

// SpanEvent is one collected span: what the tracer buffers, what Events
// returns and what a worker's telemetry frame ships to the coordinator.
// Args are in key order (the recording sites write them so), so the
// encoding of the same span set is always the same bytes.
type SpanEvent struct {
	Name       string
	Cat        string
	Pid        int // 0 = the collecting process itself (CoordinatorPid on export)
	Tid        int64
	Start, Dur time.Duration
	Args       []SpanArg
}

// SpanArg is one key/value annotation of a span.
type SpanArg struct {
	Key   string
	Value int64
}

// Events returns the collected spans in collection order. This is a
// read-side API: it serves the telemetry exporter and tests, never
// instrumented pipeline code (the write-only contract).
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.events)
}

// AbsorbSpans stitches foreign spans (a worker's, decoded from its
// telemetry frame) into this tracer under the given trace pid and
// process label, shifting every start timestamp by offset — the skew
// correction that aligns the worker's clock with the coordinator's.
func (t *Tracer) AbsorbSpans(pid int, label string, offset time.Duration, spans []SpanEvent) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		s.Pid, s.Start = pid, s.Start+offset
		t.events = append(t.events, s)
	}
	if t.procs == nil {
		t.procs = map[int]string{}
	}
	t.procs[pid] = label
}

// chromeEvent is the JSON shape of one trace event.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`  // microseconds
	Dur  float64          `json:"dur"` // microseconds
	Pid  int              `json:"pid"`
	Tid  int64            `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// chromeMeta is a metadata record ("ph":"M") naming a process track.
type chromeMeta struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	Args struct {
		Name string `json:"name"`
	} `json:"args"`
}

// processName builds one process_name metadata event.
func processName(pid int, label string) chromeMeta {
	m := chromeMeta{Name: "process_name", Ph: "M", Pid: pid}
	m.Args.Name = label
	return m
}

// WriteChromeTrace exports the collected spans as Chrome trace-event JSON
// ({"traceEvents": [...]}), loadable in Perfetto (ui.perfetto.dev) and
// chrome://tracing. Spans absorbed from workers render on their own pid
// tracks, named by process_name metadata records.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		if err != nil {
			return fmt.Errorf("obs: write trace: %w", err)
		}
		return nil
	}
	t.mu.Lock()
	events := slices.Clone(t.events)
	procs := make([]chromeMeta, 0, len(t.procs)+1)
	if len(t.procs) > 0 {
		pids := make([]int, 0, len(t.procs))
		for pid := range t.procs {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		procs = append(procs, processName(CoordinatorPid, "coordinator"))
		for _, pid := range pids {
			procs = append(procs, processName(pid, t.procs[pid]))
		}
	}
	t.mu.Unlock()

	out := struct {
		TraceEvents []any `json:"traceEvents"`
	}{TraceEvents: make([]any, 0, len(events)+len(procs))}
	for _, m := range procs {
		out.TraceEvents = append(out.TraceEvents, m)
	}
	for _, e := range events {
		pid := e.Pid
		if pid == 0 {
			pid = CoordinatorPid
		}
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ph:   "X",
			Ts:   float64(e.Start.Nanoseconds()) / 1e3,
			Dur:  float64(e.Dur.Nanoseconds()) / 1e3,
			Pid:  pid,
			Tid:  e.Tid,
		}
		if len(e.Args) > 0 {
			ce.Args = make(map[string]int64, len(e.Args))
			for _, a := range e.Args {
				ce.Args[a.Key] = a.Value
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return nil
}
