// Package pipeline orchestrates the full Surveyor dataflow of Algorithm 1:
// parallel evidence extraction over document shards (the map step the paper
// ran on up to 5000 nodes), evidence grouping by (type, property) with the
// occurrence threshold ρ (the reduce step), per-group EM fitting, and
// classification of every knowledge-base entity — including entities with
// no evidence at all. Per-phase timings are recorded for the Section-7.1
// analysis.
//
// There is one route from raw text to counts: every entry point is a
// document source (source.go) handed to one extraction loop, which runs the
// NLP front end per worker, and one reduce (refit.go).
//
// Fault tolerance: every entry point has a context-aware variant
// (RunContext, RunStream) that honours cancellation at document
// granularity and returns a typed *PartialError carrying the
// consistent partial result. Each worker wraps per-document processing in
// a recover boundary: a panicking document is quarantined — recorded on
// Result.Quarantined — and the run continues, with results bit-identical
// to a clean run over the corpus minus the quarantined documents (see
// fault.go for the contract).
//
// Observability: a Config.Obs sink receives write-only telemetry (metrics,
// live per document, and phase/worker spans). The pipeline never reads
// obs state — timestamps flow through the obs-owned clock and the only
// value that returns is each phase span's duration, which feeds
// Result.Timings (explicitly outside the determinism contract). Runs with
// a live sink are bit-identical to runs with a nil one; the testkit
// differential suite proves it. EM convergence telemetry is not recorded at all:
// Result.EMSummary and GroupResult.Trajectory re-derive it from the result,
// for every group, when asked.
package pipeline

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/obs"
	"repro/internal/tagger"
)

// Config controls a pipeline run.
type Config struct {
	// Workers is the extraction/EM parallelism; 0 means GOMAXPROCS.
	Workers int
	// Rho is the minimum number of statements a (type, property) pair
	// needs to be modelled (the paper used 100).
	Rho int64
	// Version selects the extraction pattern version (default V4).
	Version extract.Version
	// EM configures the per-group fit.
	EM core.EMConfig
	// Obs is the optional observability sink. Nil disables all telemetry
	// at the cost of one branch per record call; results are bit-identical
	// either way.
	Obs *obs.RunObs
	// Fault, when non-nil, is called for every raw document just before it
	// is processed, inside the worker's quarantine boundary — a panic in
	// the hook quarantines the document exactly like a panic in the NLP
	// stack. It is the deterministic chaos hook of the testkit fault-
	// injection suite (select documents by content hash, never by
	// schedule); it must not mutate the document.
	Fault func(index int, doc *corpus.Document)
}

// WithDefaults returns c with every zero field resolved to the value a run
// uses: GOMAXPROCS workers, ρ = 100, pattern version V4, the default EM
// configuration.
func (c Config) WithDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Rho == 0 {
		c.Rho = 100
	}
	if c.Version == 0 {
		c.Version = extract.V4
	}
	if c.EM.MaxIterations == 0 {
		c.EM = core.DefaultEMConfig()
	}
	return c
}

// EntityOpinion is the classified dominant opinion for one entity under
// one (type, property) group.
type EntityOpinion struct {
	Entity      kb.EntityID
	Pos, Neg    int64
	Probability float64
	Opinion     core.Opinion
}

// GroupResult is the fitted model and per-entity classification of one
// (type, property) combination.
type GroupResult struct {
	Key   evidence.GroupKey
	Model core.Model
	Trace core.Trace
	// Entities holds every KB entity of the type in KB order, which is
	// ascending entity id — Result.Opinion binary-searches it.
	Entities []EntityOpinion
}

// Timings holds per-phase wall-clock durations (Section 7.1 reports these
// for the production run). Timings are the one schedule-dependent field
// of a Result: the differential suite ignores them.
type Timings struct {
	Extraction time.Duration
	Grouping   time.Duration
	EM         time.Duration
	// Index is always 0 (lookups search the sorted Groups; there is no
	// index to build); kept because the benchmark reads it.
	Index time.Duration
	// Total is the whole run, end to end.
	Total time.Duration
}

// Result is the output of a pipeline run.
type Result struct {
	Store *evidence.Store
	// Groups holds one entry per modelled (type, property) pair, sorted by
	// key (evidence.GroupKey.Compare): what Group and Opinion search.
	Groups []GroupResult
	// TotalStatements counts extracted evidence statements.
	TotalStatements int64
	// DistinctPairs counts distinct (entity, property) pairs with evidence
	// (the "60 million entity-property combinations" statistic).
	DistinctPairs int
	// PairsBeforeFilter counts distinct (type, property) pairs before the
	// ρ filter (the "7 million" statistic); len(Groups) is the after.
	PairsBeforeFilter int
	// Sentences and Documents count the committed input: documents
	// quarantined by the fault boundary contribute to neither.
	Sentences int64
	Documents int
	// Quarantined lists the documents the panic boundary removed from the
	// run, sorted by document index. Empty on a healthy run.
	Quarantined []Quarantined
	// SkippedLines counts corpus lines dropped by a lenient streaming read
	// (RunStream only; always zero for in-memory runs).
	SkippedLines int64
	Timings      Timings
}

// Group returns the result for a (type, property) pair, if modelled: a
// binary search over Groups, which every producer keeps sorted by key.
func (r *Result) Group(typ, property string) (*GroupResult, bool) {
	i, ok := slices.BinarySearchFunc(r.Groups, evidence.GroupKey{Type: typ, Property: property},
		func(g GroupResult, k evidence.GroupKey) int { return g.Key.Compare(k) })
	if !ok {
		return nil, false
	}
	return &r.Groups[i], true
}

// Opinion looks up the classification of entity e, whose KB type is typ,
// under a property: the group, then a binary search over its Entities. The
// boolean is false when the group was never modelled or e is not of typ.
func (r *Result) Opinion(typ string, e kb.EntityID, property string) (EntityOpinion, bool) {
	if g, ok := r.Group(typ, property); ok {
		byID := func(eo EntityOpinion, id kb.EntityID) int { return cmp.Compare(eo.Entity, id) }
		if i, ok := slices.BinarySearchFunc(g.Entities, e, byID); ok {
			return g.Entities[i], true
		}
	}
	return EntityOpinion{}, false
}

// Opinions counts the classified (entity, property) pairs over all groups.
func (r *Result) Opinions() int {
	n := 0
	for i := range r.Groups {
		n += len(r.Groups[i].Entities)
	}
	return n
}

// EMSummary is the EM convergence summary of r, re-derived from each
// group's Trace: one row per modelled group, in Groups' key order, with
// no trajectories (GroupResult.Trajectory replays one on demand).
func (r *Result) EMSummary() obs.EMSnapshot {
	s := obs.EMSnapshot{Groups: len(r.Groups), Records: make([]obs.EMGroupRecord, len(r.Groups))}
	for i := range r.Groups {
		rec := r.Groups[i].EMRecord()
		s.TotalIterations += rec.Iterations
		if rec.Converged {
			s.Converged++
		}
		s.Records[i] = rec
	}
	if s.Groups > 0 {
		s.MeanIterations = float64(s.TotalIterations) / float64(s.Groups)
	}
	return s
}

// EMRecord is g's row of the EM summary: its key, size, iteration count,
// convergence and last log-likelihood (0 for a fit that never iterated).
func (g *GroupResult) EMRecord() obs.EMGroupRecord {
	rec := obs.EMGroupRecord{Type: g.Key.Type, Property: g.Key.Property, Entities: len(g.Entities),
		Iterations: g.Trace.Iterations, Converged: g.Trace.Converged}
	if n := len(g.Trace.LogLikelihoods); n > 0 {
		rec.FinalLogLikelihood = obs.JSONFloat(g.Trace.LogLikelihoods[n-1])
	}
	return rec
}

// Trajectory replays g's fit one EM iteration at a time and returns the
// model state after each: step 1 is core.FitEM with MaxIterations 1 from
// cfg.Init, step k+1 the same call from step k's parameters, stopping at
// Trace.Iterations. FitEM is deterministic, so under the cfg the group was
// fitted with, the rows are the fit's own iterates bit for bit and the last
// one is Model.Params. It costs one more fit, paid only by the caller.
func (g *GroupResult) Trajectory(cfg core.EMConfig) []obs.EMIteration {
	tuples := make([]core.Tuple, len(g.Entities))
	for i, eo := range g.Entities {
		tuples[i] = core.Tuple{Pos: int(eo.Pos), Neg: int(eo.Neg)}
	}
	cfg.MaxIterations = 1
	out := make([]obs.EMIteration, 0, g.Trace.Iterations)
	for range g.Trace.Iterations {
		m, tr := core.FitEM(tuples, cfg)
		p := m.Params
		out = append(out, obs.EMIteration{LogLikelihood: obs.JSONFloat(tr.LogLikelihoods[0]),
			PA: p.PA, NpPlus: p.NpPlus, NpMinus: p.NpMinus})
		cfg.Init = p
	}
	return out
}

// processor is one extraction worker's pure document → (statements,
// sentences) step; it owns that worker's scratch state. The statements stay
// valid until the next call. extractFrom runs it inside the quarantine
// boundary and commits its output to shared state only when it returns, so
// a document whose processing panics leaves no trace.
type processor func(seq int, doc *corpus.Document) (stmts []extract.Statement, sentences int64)

// docProcessor is the one processor: the NLP front end plus one worker's
// scratch buffers, reused across every sentence.
type docProcessor struct {
	posTagger *pos.Tagger
	parser    *depparse.Parser
	entTagger *tagger.Tagger
	extractor *extract.Extractor
	fault     func(int, *corpus.Document)

	sents    []token.Sentence
	toks     []token.Token
	tagged   []pos.Tagged
	mentions []tagger.Mention
	stmts    []extract.Statement
	buf      []extract.Statement
	psc      depparse.Scratch
	tsc      tagger.Scratch
}

// nlpProcessors returns the per-worker factory of processors. The
// NLP components are read-only and safe for concurrent use, so they are
// built once per run instead of once per worker — by the first worker to
// ask: inside the extraction phase, and not at all for an empty corpus.
func nlpProcessors(base *kb.KB, lex *lexicon.Lexicon, cfg Config) func() processor {
	shared := sync.OnceValue(func() docProcessor {
		return docProcessor{posTagger: pos.New(lex), parser: depparse.New(lex), entTagger: tagger.New(base, lex),
			extractor: extract.NewVersion(lex, cfg.Version), fault: cfg.Fault}
	})
	return func() processor {
		p := shared() // this worker's copy: shared components, scratch of its own
		return p.process
	}
}

func (p *docProcessor) process(index int, doc *corpus.Document) ([]extract.Statement, int64) {
	if p.fault != nil {
		p.fault(index, doc)
	}
	// The sentence loop works on locals so slice headers live in registers
	// and stack slots, as they did before the processor struct existed; the
	// headers are written back only on success. A panic loses at most the
	// capacity grown during the failed document — the next call re-slices
	// from the stale headers — and the caller never sees the buffer of a
	// quarantined document.
	sents, toks := token.SplitSentencesInto(p.sents[:0], p.toks[:0], doc.Text)
	tagged, mentions, stmts, buf := p.tagged, p.mentions, p.stmts, p.buf[:0]
	for _, sent := range sents {
		tagged = p.posTagger.TagInto(tagged[:0], sent)
		mentions = p.entTagger.TagInto(mentions[:0], &p.tsc, tagged)
		if len(mentions) == 0 {
			continue // no entity, nothing to extract
		}
		tree := p.parser.ParseInto(&p.psc, tagged)
		stmts = p.extractor.ExtractInto(stmts[:0], tree, mentions)
		buf = append(buf, stmts...)
	}
	p.sents, p.toks = sents, toks
	p.tagged, p.mentions, p.stmts, p.buf = tagged, mentions, stmts, buf
	return buf, int64(len(sents))
}

// Run executes the full pipeline over the documents. It never stops early:
// cancellation is the business of RunContext, to which Run delegates with
// a background context.
func Run(docs []corpus.Document, base *kb.KB, lex *lexicon.Lexicon, cfg Config) *Result {
	res, _ := RunContext(context.Background(), docs, base, lex, cfg)
	return res
}

// RunContext executes the full pipeline over the documents, honouring ctx
// at document granularity: once ctx is cancelled, workers stop claiming
// documents (a claimed document is always finished — committed or
// quarantined). A cancelled run still groups and models the evidence it
// committed, and returns that partial result both directly and inside a
// *PartialError. Panicking documents are quarantined, not fatal; see
// Result.Quarantined and the contract in fault.go.
func RunContext(ctx context.Context, docs []corpus.Document, base *kb.KB, lex *lexicon.Lexicon, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	return run(cfg, base, lex, min(cfg.Workers, len(docs)), &sliceSource{ctx: ctx, docs: docs})
}

// RunStream executes the full pipeline over documents drawn from a
// corpus.Iterator, so corpora larger than RAM can run: at most
// Workers × streamBatch documents are in memory at once, and nothing else
// scales with corpus size.
//
// Semantics match RunContext with stream sequence numbers standing in for
// document indices: panicking documents are quarantined (Result.Quarantined
// records their sequence numbers), cancellation is seen before a batch is
// claimed and never after, and a run cut short — by ctx or by a fatal
// iterator error — still models its committed evidence and returns the
// partial result inside a *PartialError. Lines a lenient iterator skipped
// are surfaced on Result.SkippedLines.
func RunStream(ctx context.Context, it *corpus.Iterator, base *kb.KB, lex *lexicon.Lexicon, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	return run(cfg, base, lex, cfg.Workers, &iterSource{ctx: ctx, it: it})
}

// run is the one run lifecycle behind every end-to-end entry point: the
// extraction phase (map) over whatever source the entry point picked, then
// reduce. The reduce runs to completion even when the
// source stopped early: the committed evidence is already in memory and
// bounded, and modelling it is what makes the partial result — and the
// -report a SIGINT-ed cmd/surveyor flushes on the way down — exactly the
// clean result over the committed subset.
func run(cfg Config, base *kb.KB, lex *lexicon.Lexicon, workers int, src source) (*Result, error) {
	o := cfg.Obs
	whole := o.Phase("run")
	span := o.Phase("extract")
	ext, skipped, stopErr := extractFrom(cfg, base, lex, workers, src)
	extraction := span.End()
	res := reduce(ext.Store, base, cfg, ReduceStats{
		Sentences:    ext.Sentences,
		Documents:    ext.Consumed - len(ext.Quarantined),
		Quarantined:  ext.Quarantined,
		SkippedLines: skipped,
	})
	res.Timings.Extraction = extraction
	res.Timings.Total = whole.End()
	if stopErr != nil {
		return res, &PartialError{Result: res, Processed: res.Documents, Consumed: ext.Consumed, Err: stopErr}
	}
	return res, nil
}
