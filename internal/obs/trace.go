package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer collects complete ("ph":"X") spans for phases, workers, and
// per-document loops, and exports them as Chrome trace-event JSON — the
// format Perfetto and chrome://tracing load directly.
//
// Phase spans are appended under a mutex (there are a handful per run).
// Worker-loop spans are buffered in worker-owned WorkerTrace slices and
// folded in once per worker, so the hot path never contends on the
// tracer. Event volume is bounded: each worker keeps at most
// perWorkerSpanCap document spans.
type Tracer struct {
	clock Clock

	mu     sync.Mutex
	events []traceEvent
	procs  map[int]string // foreign pid → process label, for trace metadata
}

// perWorkerSpanCap bounds the document spans buffered per worker.
const perWorkerSpanCap = 1 << 13

// NewTracer returns a tracer reading timestamps from clock (nil selects
// the shared system clock).
func NewTracer(clock Clock) *Tracer {
	return &Tracer{clock: clockOrDefault(clock)}
}

// traceEvent is one complete span in the Chrome trace-event model.
type traceEvent struct {
	name     string
	cat      string
	pid      int // 0 renders as CoordinatorPid (the local process)
	tid      int64
	start    time.Duration
	duration time.Duration
	args     map[string]int64
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
func (t *Tracer) append(evs ...traceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, evs...)
	t.mu.Unlock()
}

// WorkerTrace is a worker-owned span buffer: document spans are appended
// without locks and folded into the tracer once, when the worker calls
// close.
type WorkerTrace struct {
	tracer *Tracer
	tid    int64
	start  time.Duration
	events []traceEvent
}

// worker returns a buffer for worker id (zero-based) in the given phase.
func (t *Tracer) worker(id int) *WorkerTrace {
	if t == nil {
		return nil
	}
	return &WorkerTrace{tracer: t, tid: int64(id) + 1}
}

// docStart marks the beginning of one document's processing and reports
// whether its span is recorded — false once the buffer is at its cap
// (callers skip docEnd bookkeeping then).
func (wt *WorkerTrace) docStart() bool {
	if wt == nil || len(wt.events) >= perWorkerSpanCap {
		return false
	}
	wt.start = wt.tracer.clock.Now()
	return true
}

// docEnd closes the span opened by the last successful docStart.
func (wt *WorkerTrace) docEnd(doc int, sentences, statements int64) {
	if wt == nil {
		return
	}
	now := wt.tracer.clock.Now()
	wt.events = append(wt.events, traceEvent{
		name:     "doc",
		cat:      "doc",
		tid:      wt.tid,
		start:    wt.start,
		duration: now - wt.start,
		args:     map[string]int64{"doc": int64(doc), "sentences": sentences, "statements": statements},
	})
}

// close folds the buffered spans (plus one covering span for the worker's
// whole loop) into the tracer.
func (wt *WorkerTrace) close(phase string, loopStart, loopEnd time.Duration, docs int64) {
	if wt == nil {
		return
	}
	wt.events = append(wt.events, traceEvent{
		name:     phase + "/worker",
		cat:      "worker",
		tid:      wt.tid,
		start:    loopStart,
		duration: loopEnd - loopStart,
		args:     map[string]int64{"docs": docs},
	})
	wt.tracer.append(wt.events...)
	wt.events = nil
}

// SpanEvent is the exported, passive form of one collected span: what
// Events returns and what a worker's telemetry frame ships to the
// coordinator. Args are sorted by key so the encoding of the same span
// set is always the same bytes.
type SpanEvent struct {
	Name       string
	Cat        string
	Pid        int // 0 = the collecting process itself
	Tid        int64
	Start, Dur time.Duration
	Args       []SpanArg
}

// SpanArg is one key/value annotation of a span.
type SpanArg struct {
	Key   string
	Value int64
}

// Events returns the collected spans in collection order, args sorted by
// key. This is a read-side API: it serves the telemetry exporter and
// tests, never instrumented pipeline code (the obsflow contract).
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := make([]traceEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()

	out := make([]SpanEvent, len(events))
	for i, e := range events {
		out[i] = SpanEvent{
			Name: e.name, Cat: e.cat, Pid: e.pid, Tid: e.tid,
			Start: e.start, Dur: e.duration, Args: sortedArgs(e.args),
		}
	}
	return out
}

// sortedArgs flattens an args map into a key-sorted slice.
func sortedArgs(args map[string]int64) []SpanArg {
	if len(args) == 0 {
		return nil
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SpanArg, len(keys))
	for i, k := range keys {
		out[i] = SpanArg{Key: k, Value: args[k]}
	}
	return out
}

// AbsorbSpans stitches foreign spans (a worker's, decoded from its
// telemetry frame) into this tracer under the given trace pid and
// process label, shifting every start timestamp by offset — the skew
// correction that aligns the worker's clock with the coordinator's.
func (t *Tracer) AbsorbSpans(pid int, label string, offset time.Duration, spans []SpanEvent) {
	if t == nil || len(spans) == 0 {
		return
	}
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		ev := traceEvent{
			name: s.Name, cat: s.Cat, pid: pid, tid: s.Tid,
			start: s.Start + offset, duration: s.Dur,
		}
		if len(s.Args) > 0 {
			ev.args = make(map[string]int64, len(s.Args))
			for _, a := range s.Args {
				ev.args[a.Key] = a.Value
			}
		}
		events[i] = ev
	}
	t.mu.Lock()
	t.events = append(t.events, events...)
	if t.procs == nil {
		t.procs = map[int]string{}
	}
	t.procs[pid] = label
	t.mu.Unlock()
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
	events := make([]traceEvent, len(t.events))
	copy(events, t.events)
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
		pid := e.pid
		if pid == 0 {
			pid = CoordinatorPid
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: e.name,
			Cat:  e.cat,
			Ph:   "X",
			Ts:   float64(e.start.Nanoseconds()) / 1e3,
			Dur:  float64(e.duration.Nanoseconds()) / 1e3,
			Pid:  pid,
			Tid:  e.tid,
			Args: e.args,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return nil
}

// EventCount returns the number of collected spans.
func (t *Tracer) EventCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
