// Package obs is the zero-dependency observability layer of the Surveyor
// reproduction: a metrics registry with lock-free counters, gauges, and
// fixed-bucket histograms; span tracing for pipeline phases and per-worker
// document loops with Chrome trace-event export (Perfetto-loadable); EM
// convergence telemetry; live run progress; the distributed coordinator's
// fleet sink (Cluster: the records behind /cluster and the surveyor_dist_*
// series move together) with worker telemetry federation; an optional debug
// HTTP server (Prometheus text, expvar, pprof, progress); and profiling
// helpers.
//
// Determinism contract: telemetry is strictly write-only from the
// pipeline's perspective. Instrumented code records counts, spans, and
// trajectories but never reads them back — the obsflow analyzer enforces
// this statically, and the testkit differential suite proves that runs
// with a live RunObs are bit-identical to runs with a nil one. All
// timestamps flow through the Clock owned by this package; the only
// timing value that escapes into results is Span.End's duration, which
// feeds the Timings fields that the determinism contract explicitly
// excludes.
//
// Every recording method is safe on a nil receiver, so a disabled
// observability path costs a single branch per call site.
package obs

import "time"

// RunObs bundles the observability sinks of one pipeline run. Any field
// may be nil to disable that aspect; a nil *RunObs disables everything.
// The same RunObs may serve several consecutive runs (metrics and EM
// telemetry accumulate; progress resets per run).
type RunObs struct {
	// Metrics receives pipeline counters, gauges, and histograms.
	Metrics *Registry
	// Tracer receives phase, worker, and document spans.
	Tracer *Tracer
	// EM receives per-group convergence telemetry.
	EM *EMRecorder
	// Progress is the live run view served by the debug server.
	Progress *Progress
	// Cluster is the distributed coordinator's fleet view, served by the
	// debug server's /cluster endpoint. Nil outside distributed runs.
	Cluster *Cluster
	// Clock overrides the time source for spans started through this
	// RunObs. Nil selects the shared system clock. Tracer and Progress
	// carry their own clocks (set at construction).
	Clock Clock
}

// New returns a RunObs with every component enabled, sharing one system
// clock.
func New() *RunObs {
	clock := NewSystemClock()
	return &RunObs{
		Metrics:  NewRegistry(),
		Tracer:   NewTracer(clock),
		EM:       NewEMRecorder(),
		Progress: NewProgress(clock),
		Cluster:  NewCluster(clock),
		Clock:    clock,
	}
}

func (o *RunObs) clock() Clock {
	if o == nil {
		return defaultClock
	}
	return clockOrDefault(o.Clock)
}

// Span is an in-flight measurement. It always measures — even with a nil
// RunObs the pipeline needs phase durations for Result.Timings — and
// additionally records a trace event when a tracer is attached.
type Span struct {
	tracer   *Tracer
	progress *Progress
	clock    Clock
	name     string
	start    time.Duration
}

// Phase starts a span for a named pipeline phase. Works on a nil RunObs
// (the span still measures, records nothing).
func (o *RunObs) Phase(name string) *Span {
	s := &Span{clock: o.clock(), name: name}
	if o != nil {
		s.tracer = o.Tracer
		s.progress = o.Progress
	}
	s.start = s.clock.Now()
	s.progress.setPhase(name)
	return s
}

// End closes the span and returns its duration. The duration feeds
// Result.Timings — the one schedule-dependent output the determinism
// contract excludes; reading any other obs state from instrumented code
// is forbidden (see the obsflow analyzer).
func (s *Span) End() time.Duration {
	d := s.clock.Now() - s.start
	if s.tracer != nil {
		s.tracer.append(traceEvent{
			name: s.name, cat: "phase", tid: phaseTid,
			start: s.start, duration: d,
		})
	}
	return d
}

// StartRun initialises per-run progress state. Call before spawning
// workers.
func (o *RunObs) StartRun(totalDocs, workers int) {
	if o == nil {
		return
	}
	o.Progress.startRun(totalDocs, workers)
}

// EndRun marks the run complete.
func (o *RunObs) EndRun() {
	if o == nil {
		return
	}
	o.Progress.endRun()
}

// WorkerObs is one extraction worker's write-only telemetry handle:
// per-worker progress counters plus document spans. Methods are
// nil-safe; the pipeline holds one per worker goroutine.
type WorkerObs struct {
	trace     *WorkerTrace
	slot      *WorkerSlot
	clock     Clock
	loopStart time.Duration
	docs      int64
	inDoc     bool
}

// Worker returns the telemetry handle for worker id (zero-based). Nil
// when o is nil.
func (o *RunObs) Worker(id int) *WorkerObs {
	if o == nil {
		return nil
	}
	w := &WorkerObs{
		trace: o.Tracer.worker(id),
		slot:  o.Progress.worker(id),
		clock: o.clock(),
	}
	w.loopStart = w.clock.Now()
	return w
}

// DocStart marks the beginning of one document.
func (w *WorkerObs) DocStart() {
	if w == nil {
		return
	}
	w.inDoc = w.trace.docStart()
}

// DocEnd marks the end of one document with its sentence and statement
// counts.
func (w *WorkerObs) DocEnd(doc int, sentences, statements int64) {
	if w == nil {
		return
	}
	w.docs++
	if w.inDoc {
		w.trace.docEnd(doc, sentences, statements)
		w.inDoc = false
	}
	w.slot.AddDoc(sentences, statements)
}

// Close flushes the worker's buffered telemetry. Call once, when the
// worker's loop exits.
func (w *WorkerObs) Close(phase string) {
	if w == nil {
		return
	}
	w.trace.close(phase, w.loopStart, w.clock.Now(), w.docs)
}

// PipelineMetrics is the fixed inventory of pipeline metrics, resolved
// once per run. The zero value (every handle nil) is fully inert.
type PipelineMetrics struct {
	Documents     *Counter // surveyor_documents_total
	Sentences     *Counter // surveyor_sentences_total
	Statements    *Counter // surveyor_statements_total
	DistinctPairs *Gauge   // surveyor_distinct_pairs
	PairsBefore   *Gauge   // surveyor_pairs_before_filter
	Groups        *Gauge   // surveyor_groups_modelled
	Opinions      *Counter // surveyor_opinions_total
	// QuarantinedDocs and SkippedLines are the fault-boundary health
	// signals: /healthz degrades when either is non-zero.
	QuarantinedDocs *Counter // MetricQuarantinedDocs
	SkippedLines    *Counter // MetricSkippedLines
	EMIterations    *Histogram
	DocSentences    *Histogram
}

// Metric names shared between the pipeline's recording side and the debug
// server's /healthz read side.
const (
	MetricQuarantinedDocs = "surveyor_quarantined_docs_total"
	MetricSkippedLines    = "surveyor_corpus_skipped_lines_total"
)

// defaultEMIterBounds covers the DefaultEMConfig iteration budget (50).
var defaultEMIterBounds = []float64{1, 2, 3, 5, 8, 12, 20, 30, 50}

// defaultDocSentenceBounds covers the Zipf-shaped document lengths of
// Figure 9: most documents are a handful of sentences, the tail is long.
var defaultDocSentenceBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// PipelineMetrics registers (or re-resolves) the pipeline's metric
// inventory on the RunObs registry. With a nil RunObs or registry, every
// handle is nil and recording is free.
func (o *RunObs) PipelineMetrics() PipelineMetrics {
	var r *Registry
	if o != nil {
		r = o.Metrics
	}
	return PipelineMetrics{
		Documents:     r.Counter("surveyor_documents_total", "documents processed by extraction"),
		Sentences:     r.Counter("surveyor_sentences_total", "sentences parsed by the NLP front end"),
		Statements:    r.Counter("surveyor_statements_total", "evidence statements extracted"),
		DistinctPairs: r.Gauge("surveyor_distinct_pairs", "distinct (entity, property) pairs with evidence"),
		PairsBefore:   r.Gauge("surveyor_pairs_before_filter", "(type, property) pairs before the rho filter"),
		Groups:        r.Gauge("surveyor_groups_modelled", "(type, property) groups modelled after the rho filter"),
		Opinions:      r.Counter("surveyor_opinions_total", "entity-property opinions classified"),
		QuarantinedDocs: r.Counter(MetricQuarantinedDocs,
			"documents quarantined by the per-document panic boundary"),
		SkippedLines: r.Counter(MetricSkippedLines,
			"corpus lines skipped by lenient streaming ingestion"),
		EMIterations: r.Histogram("surveyor_em_iterations",
			"EM iterations to convergence per modelled group", defaultEMIterBounds),
		DocSentences: r.Histogram("surveyor_doc_sentences",
			"sentences per document (extraction skew)", defaultDocSentenceBounds),
	}
}

// GroupingObs is the write-only counter set the evidence grouping phase
// reports through. The zero value and nil are inert.
type GroupingObs struct {
	// PairsScanned counts (entity, property) keys folded during grouping.
	PairsScanned *Counter
	// GroupsKept and GroupsFiltered count (type, property) groups that
	// passed / failed the rho threshold.
	GroupsKept     *Counter
	GroupsFiltered *Counter
}

// Grouping resolves the grouping-phase counters. Nil when o (or its
// registry) is nil, which the evidence package treats as disabled.
func (o *RunObs) Grouping() *GroupingObs {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return &GroupingObs{
		PairsScanned: o.Metrics.Counter("surveyor_grouping_pairs_scanned_total",
			"(entity, property) keys folded by the grouping phase"),
		GroupsKept: o.Metrics.Counter("surveyor_grouping_groups_kept_total",
			"(type, property) groups at or above rho"),
		GroupsFiltered: o.Metrics.Counter("surveyor_grouping_groups_filtered_total",
			"(type, property) groups below rho"),
	}
}

// EMGroup starts convergence telemetry for one (type, property) fit. Nil
// (inert) when o or its recorder is nil.
func (o *RunObs) EMGroup(typ, property string, entities int) *EMGroupObs {
	if o == nil {
		return nil
	}
	return o.EM.Group(typ, property, entities)
}
