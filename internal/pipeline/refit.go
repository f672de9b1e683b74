// Reusable pieces of the pipeline for callers that do not run it end to
// end — above all the incremental miner (internal/incremental), which
// extracts per-epoch evidence deltas, re-fits only the dirty groups, and
// splices the refreshed fits into a published snapshot. Everything here
// is the same code the end-to-end entry points run (see run in
// pipeline.go), with behaviour proven bit-identical by the testkit
// differential suites.
package pipeline

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/obs"
)

// Extraction is the output of the parallel extraction phase alone: the
// evidence delta plus the input-side statistics a Result would report for
// it. Quarantined indices carry the document offset passed to
// ExtractEvidence, so epoch-local runs line up with a batch run over the
// concatenated corpus.
type Extraction struct {
	// Store holds the extracted evidence counters.
	Store *evidence.Store
	// Sentences counts sentences of committed documents.
	Sentences int64
	// Quarantined lists the documents the panic boundary removed, sorted
	// by (offset-adjusted) document index.
	Quarantined []Quarantined
	// Consumed is the number of leading documents claimed: len(docs)
	// unless the context was cancelled mid-phase.
	Consumed int
}

// ExtractEvidence runs only the parallel extraction phase (the map step)
// over docs and returns the evidence delta. docOffset shifts every
// document index the phase emits — quarantine records and the Fault hook
// argument — by the number of documents that precede this batch, so an
// epoch-split replay reports exactly the indices of one batch run over
// the concatenation. On cancellation the partial extraction is returned
// together with ctx.Err(); callers with atomic-epoch semantics (the
// incremental miner) discard it.
func ExtractEvidence(ctx context.Context, docs []corpus.Document, base *kb.KB, lex *lexicon.Lexicon, cfg Config, docOffset int) (*Extraction, error) {
	cfg = cfg.withDefaults()
	ext, _, err := extractFrom(cfg, base, lex, min(cfg.Workers, len(docs)),
		&sliceSource{ctx: ctx, docs: docs, offset: docOffset})
	return ext, err
}

// extractFrom is the one extraction loop (the map step) behind every entry
// point: workers claim documents from src until it stops — the returned
// error says why if that was early — and run each through their own
// NLP processor inside the quarantine boundary. A document reaches the
// worker's private evidence accumulator, folded into the shared store once
// at the end, only after it has fully processed. Telemetry goes through a
// worker-owned obs handle (per-worker progress slot, locally buffered
// spans), so the hot loop never contends on a shared observability
// structure.
func extractFrom(cfg Config, base *kb.KB, lex *lexicon.Lexicon, workers int, src source) (ext *Extraction, skipped int64, err error) {
	o := cfg.Obs
	pm := o.PipelineMetrics()
	newProcessor := nlpProcessors(base, lex, cfg)
	ext = &Extraction{Store: evidence.NewStore()}
	var sentences atomic.Int64
	var ql quarantineLog

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wo := o.Worker(w)
			local := int64(0)
			acc := evidence.NewLocal()
			claim, process := src.worker(), newProcessor()
			for {
				seq, doc, ok := claim()
				if !ok {
					break
				}
				wo.DocStart()
				stmts, n, reason := quarantine(process, seq, doc)
				if reason != "" {
					ql.add(seq, reason)
					pm.QuarantinedDocs.Inc()
					wo.DocEnd(seq, 0, 0)
					continue
				}
				for _, st := range stmts {
					acc.Add(st)
				}
				local += n
				wo.DocEnd(seq, n, int64(len(stmts)))
				pm.DocSentences.Observe(float64(n))
			}
			acc.FlushTo(ext.Store)
			sentences.Add(local)
			wo.Close("extract")
		}(w)
	}
	wg.Wait()

	ext.Sentences, ext.Quarantined = sentences.Load(), ql.sorted()
	ext.Consumed, skipped, err = src.stopped()
	return ext, skipped, err
}

// FitGroups runs the per-group EM phase over an explicit group list and
// returns one GroupResult per group, in input order. It is the re-fit
// entry point of the incremental miner: handed only the dirty groups, it
// does work proportional to them, and each fit is bit-identical to the
// one reduce would produce for the same group — both run the same worker
// pool over the same deterministic per-group computation.
func FitGroups(groups []evidence.Group, cfg Config) []GroupResult {
	return fitGroups(groups, cfg.withDefaults())
}

// fitGroups is the EM worker pool shared by reduce and FitGroups: a
// fixed set of workers claims groups through an atomic counter, so each
// worker reuses one tuple buffer and one classification buffer instead of
// allocating per group. Convergence telemetry flows through a write-only
// per-group observer — it cannot alter the fit, so obs-on and obs-off
// runs stay bit-identical.
func fitGroups(groups []evidence.Group, cfg Config) []GroupResult {
	o := cfg.Obs
	pm := o.PipelineMetrics()
	out := make([]GroupResult, len(groups))
	var wg sync.WaitGroup
	var nextGroup atomic.Int64
	for w := 0; w < min(cfg.Workers, len(groups)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tuples []core.Tuple
			var results []core.Result
			for {
				gi := int(nextGroup.Add(1)) - 1
				if gi >= len(groups) {
					break
				}
				g := groups[gi]
				if cap(tuples) < len(g.Entities) {
					tuples = make([]core.Tuple, len(g.Entities))
				} else {
					tuples = tuples[:len(g.Entities)]
				}
				for i, ec := range g.Entities {
					tuples[i] = core.Tuple{Pos: int(ec.Pos), Neg: int(ec.Neg)}
				}
				emCfg := cfg.EM
				gobs := o.EMGroup(g.Key.Type, g.Key.Property, len(g.Entities))
				if gobs != nil {
					emCfg.Observer = func(_ int, p core.Params, ll float64) {
						gobs.Iter(p.PA, p.NpPlus, p.NpMinus, ll)
					}
				}
				var model core.Model
				var trace core.Trace
				model, results, trace = core.FitAndClassifyInto(results[:0], tuples, emCfg)
				if gobs != nil {
					finalLL := 0.0
					if n := len(trace.LogLikelihoods); n > 0 {
						finalLL = trace.LogLikelihoods[n-1]
					}
					gobs.Done(trace.Iterations, trace.Converged, finalLL)
				}
				pm.EMIterations.Observe(float64(trace.Iterations))
				gr := GroupResult{Key: g.Key, Model: model, Trace: trace,
					Entities: make([]EntityOpinion, len(g.Entities))}
				for i, ec := range g.Entities {
					gr.Entities[i] = EntityOpinion{
						Entity:      ec.Entity,
						Pos:         ec.Pos,
						Neg:         ec.Neg,
						Probability: results[i].Probability,
						Opinion:     results[i].Opinion,
					}
				}
				out[gi] = gr
			}
		}()
	}
	wg.Wait()
	return out
}

// ReduceStats carries the input-side statistics a reduce-only run cannot
// derive from the merged evidence store: committed documents, sentence
// counts, and the (corpus-global) quarantine records of the map phase.
type ReduceStats struct {
	Sentences    int64
	Documents    int
	Quarantined  []Quarantined
	SkippedLines int64
}

// ReduceStore runs the reduce half of the pipeline — grouping and EM,
// exactly the reduce of a batch run — over externally aggregated evidence:
// counters merged from workers, folded, or built by a caller with its own
// extraction. It is the coordinator's entry point in the distributed miner
// (internal/dist): workers ship evidence deltas, the coordinator merges
// them through Store.Merge in deterministic shard order and hands the
// result here, so the reduce output is bit-identical to a single-process
// run whose extraction committed the same store. The caller owns
// run-lifecycle telemetry (obs StartRun/EndRun) and the extraction/total
// timings.
func ReduceStore(store *evidence.Store, base *kb.KB, cfg Config, stats ReduceStats) *Result {
	return reduce(store, base, cfg.withDefaults(), stats)
}

// reduce is the one reduce behind every entry point: group, then fit. The
// fitted list, sorted by key, is the lookup structure; nothing is indexed.
func reduce(store *evidence.Store, base *kb.KB, cfg Config, stats ReduceStats) *Result {
	res := &Result{
		Store:           store,
		TotalStatements: store.TotalStatements(),
		DistinctPairs:   store.Len(),
		Sentences:       stats.Sentences,
		Documents:       stats.Documents,
		Quarantined:     stats.Quarantined,
		SkippedLines:    stats.SkippedLines,
	}
	o := cfg.Obs

	// Grouping: one parallel per-shard pass computes both the before-ρ pair
	// count and the grouped aggregates.
	span := o.Phase("group")
	groups, before := evidence.ParallelGroupObserved(store, base, cfg.Rho, cfg.Workers, o.Grouping())
	res.PairsBeforeFilter = before
	res.Timings.Grouping = span.End()

	// EM: the shared worker pool of fitGroups — also the re-fit entry point
	// the incremental miner drives with dirty groups only.
	span = o.Phase("em")
	res.Groups = fitGroups(groups, cfg)
	res.Timings.EM = span.End()

	res.RecordSince(&Result{}, o)
	return res
}

// RecordSince moves o's run-level series from prev's values to r's, counters
// by the difference and gauges outright. A batch reduce records against the
// zero Result, the incremental miner against the snapshot it replaces, so
// /metrics, /healthz and -report agree once both have seen the same documents.
func (r *Result) RecordSince(prev *Result, o *obs.RunObs) {
	pm := o.PipelineMetrics()
	pm.Documents.Add(int64(r.Documents - prev.Documents))
	pm.Sentences.Add(r.Sentences - prev.Sentences)
	pm.Statements.Add(r.TotalStatements - prev.TotalStatements)
	pm.SkippedLines.Add(r.SkippedLines - prev.SkippedLines)
	pm.Opinions.Add(int64(r.Opinions() - prev.Opinions()))
	pm.DistinctPairs.Set(float64(r.DistinctPairs))
	pm.PairsBefore.Set(float64(r.PairsBeforeFilter))
	pm.Groups.Set(float64(len(r.Groups)))
}

// ResultStats carries the corpus-level statistics of an assembled Result
// — everything AssembleResult cannot derive from the groups alone.
type ResultStats struct {
	TotalStatements   int64
	DistinctPairs     int
	PairsBeforeFilter int
	Sentences         int64
	Documents         int
	Quarantined       []Quarantined
	SkippedLines      int64
}

// AssembleResult wraps already fitted groups as a query-ready Result.
// groups must be sorted by (type, property) — the order every batch entry
// point produces and Result.Group searches — and each group's Entities must
// be in KB order, ascending entity id, which Result.Opinion searches; an
// assembled snapshot is then field-for-field comparable with a batch Result.
// Nothing is copied or indexed: the groups slice and everything it references
// are retained, and callers treat them as immutable after assembly.
func AssembleResult(store *evidence.Store, groups []GroupResult, stats ResultStats) *Result {
	if !slices.IsSortedFunc(groups, func(a, b GroupResult) int { return a.Key.Compare(b.Key) }) {
		panic("pipeline: AssembleResult requires groups sorted by (type, property)")
	}
	return &Result{
		Store:             store,
		Groups:            groups,
		TotalStatements:   stats.TotalStatements,
		DistinctPairs:     stats.DistinctPairs,
		PairsBeforeFilter: stats.PairsBeforeFilter,
		Sentences:         stats.Sentences,
		Documents:         stats.Documents,
		Quarantined:       stats.Quarantined,
		SkippedLines:      stats.SkippedLines,
	}
}
