// Package obs is the zero-dependency observability layer of the Surveyor
// reproduction: a metrics registry with lock-free counters, gauges, and
// fixed-bucket histograms; span tracing for pipeline phases and per-worker
// document loops, one SpanEvent shape from record to Chrome trace-event
// export (Perfetto-loadable); the distributed coordinator's fleet sink
// (Cluster: the records behind /cluster and the surveyor_dist_* series
// move together) with worker telemetry federation, which checks a
// worker's whole snapshot before any series moves; an optional debug HTTP
// server (Prometheus text, trace, cluster, health, pprof); the run report;
// and profiling helpers. The live view of a run is /metrics:
// surveyor_doc_sentences' _count and _sum move as each document finishes.
//
// EM convergence telemetry is not recorded here. A fit is a deterministic
// function of its group's counts, so the summary and any group's
// per-iteration trajectory are re-derived from the run's result on demand
// (pipeline.Result.EMSummary, GroupResult.Trajectory) — every group, no
// caps, no sampling. This package only carries their JSON shapes
// (EMSnapshot, EMGroupRecord, EMIteration).
//
// Determinism contract: telemetry is strictly write-only from the
// pipeline's perspective. Instrumented code records counts and spans but
// never reads them back — the testkit differential suite proves that runs
// with a live RunObs are bit-identical to runs with a nil one. All
// timestamps flow through the Clock owned by this package; the only timing
// value that escapes into results is Span.End's duration, which feeds the
// Timings fields that the determinism contract explicitly excludes.
//
// Every recording method is safe on a nil receiver, so a disabled
// observability path costs a single branch per call site.
package obs

import "time"

// RunObs bundles the observability sinks of one pipeline run. Any field
// may be nil to disable that aspect; a nil *RunObs disables everything.
// The same RunObs may serve several consecutive runs (metrics and spans
// accumulate).
type RunObs struct {
	// Metrics receives pipeline counters, gauges, and histograms.
	Metrics *Registry
	// Tracer receives phase, worker, and document spans.
	Tracer *Tracer
	// Cluster is the distributed coordinator's fleet view, served by the
	// debug server's /cluster endpoint. Nil outside distributed runs.
	Cluster *Cluster
	// Clock overrides the time source for spans started through this
	// RunObs. Nil selects the shared system clock. Tracer and Cluster
	// carry their own clocks (set at construction).
	Clock Clock
}

// New returns a RunObs with every component enabled, sharing one system
// clock.
func New() *RunObs {
	clock := NewSystemClock()
	return &RunObs{
		Metrics: NewRegistry(),
		Tracer:  NewTracer(clock),
		Cluster: NewCluster(clock),
		Clock:   clock,
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
	tracer *Tracer
	clock  Clock
	name   string
	start  time.Duration
}

// Phase starts a span for a named pipeline phase. Works on a nil RunObs
// (the span still measures, records nothing).
func (o *RunObs) Phase(name string) *Span {
	s := &Span{clock: o.clock(), name: name}
	if o != nil {
		s.tracer = o.Tracer
	}
	s.start = s.clock.Now()
	return s
}

// End closes the span and returns its duration. The duration feeds
// Result.Timings — the one schedule-dependent output the determinism
// contract excludes; reading any other obs state from instrumented code
// is forbidden (testkit's TestObsInvariance fails on such a read).
func (s *Span) End() time.Duration {
	d := s.clock.Now() - s.start
	if s.tracer != nil {
		s.tracer.append(SpanEvent{Name: s.name, Cat: "phase", Tid: phaseTid, Start: s.start, Dur: d})
	}
	return d
}

// Worker returns the telemetry handle for extraction worker id
// (zero-based): its document spans, buffered on the tracer's clock. Nil —
// and every method a no-op — when o or its tracer is nil.
func (o *RunObs) Worker(id int) *WorkerTrace {
	if o == nil {
		return nil
	}
	return o.Tracer.worker(id)
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
