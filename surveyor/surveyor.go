// Package surveyor is the public API of the Surveyor reproduction — the
// system described in "Mining Subjective Properties on the Web" (Trummer,
// Halevy, Lee, Sarawagi, Gupta; SIGMOD 2015).
//
// Surveyor mines the dominant opinion about whether a subjective property
// (an adjective such as "cute" or "big") applies to a knowledge-base
// entity, from free web text. The pipeline extracts positive and negative
// statements with dependency patterns, aggregates them into per-entity
// counters, fits a per-(type, property) probabilistic model of author
// behaviour with EM, and classifies every entity of the type — including
// entities never mentioned at all.
//
// Quick start:
//
//	sys := surveyor.NewSystem()
//	sys.AddEntity("kitten", "animal", false, nil)
//	sys.AddEntity("spider", "animal", false, nil)
//	docs := []surveyor.Document{{Text: "Kittens are cute. Spiders are not cute."}}
//	res := sys.Mine(docs, surveyor.Config{Rho: 1})
//	op, _ := res.Opinion("kitten", "cute")
//
// The lower-level model API (FitModel / Model.ProbabilityPositive) works
// directly on statement counts with no text processing at all.
package surveyor

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/threshold"
	"repro/internal/wire"
)

// Opinion is a mined dominant opinion.
type Opinion int8

// Opinion values. Unsolved means the system produced no decision for the
// pair (posterior exactly one half, or the pair was never modelled).
const (
	Negative Opinion = -1
	Unsolved Opinion = 0
	Positive Opinion = +1
)

// String renders the opinion as the paper's +/−/N notation.
func (o Opinion) String() string { return core.Opinion(o).String() }

func fromCore(o core.Opinion) Opinion { return Opinion(o) }

// Document is one unit of web content, assumed to have a single author: the
// corpus loader's own type (URL, Domain, Author, Text), so a loaded corpus
// is mined in place, without a second copy.
type Document = corpus.Document

// System bundles a knowledge base and lexicon and runs the mining
// pipeline. Create with NewSystem, then register entities (or load the
// built-in evaluation knowledge base) before mining.
type System struct {
	kb  *kb.KB
	lex *lexicon.Lexicon
	// registered tracks whether entity names still need lexicon
	// registration before the next Mine.
	dirty bool
}

// NewSystem returns a System with the built-in English lexicon and an
// empty knowledge base.
func NewSystem() *System {
	return &System{kb: kb.New(), lex: lexicon.Default()}
}

// NewSystemWithBuiltinKB returns a System preloaded with the synthetic
// evaluation knowledge base (cities, animals, celebrities, professions,
// sports, countries, lakes, mountains). seed controls the deterministic
// synthesis of the long-tail entities.
func NewSystemWithBuiltinKB(seed uint64) *System {
	return &System{kb: kb.Default(seed), lex: lexicon.Default(), dirty: true}
}

// AddEntity registers an entity with its most notable type. proper marks
// proper names ("Chicago") as opposed to common nouns ("kitten"); attrs
// are optional objective attributes. Returns a handle usable with
// Result.OpinionByID.
func (s *System) AddEntity(name, typ string, proper bool, attrs map[string]float64) int {
	id := s.kb.Add(kb.Entity{Name: name, Type: typ, Proper: proper, Attributes: attrs})
	s.dirty = true
	return int(id)
}

// AddSubjectiveAdjective extends the lexicon with an adjective unknown to
// the built-in inventory, optionally wiring antonyms.
func (s *System) AddSubjectiveAdjective(adj string, antonyms ...string) {
	s.lex.AddAdjective(adj, true, antonyms...)
}

// EntityCount returns the number of registered entities.
func (s *System) EntityCount() int { return s.kb.Len() }

// Types returns the registered entity types.
func (s *System) Types() []string { return s.kb.Types() }

// EntityName resolves an entity handle to its canonical name. Unknown
// handles resolve to "".
func (s *System) EntityName(id int) string {
	if id < 0 || id >= s.kb.Len() {
		return ""
	}
	return s.kb.Get(kb.EntityID(id)).Name
}

// SaveKB serialises the knowledge base (JSON lines).
func (s *System) SaveKB(w io.Writer) error { return s.kb.Save(w) }

// Config controls a mining run.
type Config struct {
	// Workers is the parallelism (0 = all cores).
	Workers int
	// Rho is the minimum statement count for a (type, property) pair to
	// be modelled. Default 100, as in the paper.
	Rho int64
	// PatternVersion selects the extraction pattern version 1-4 of the
	// paper's Appendix B; 0 or 4 selects the shipped configuration.
	PatternVersion int
	// EMIterations caps the per-group EM loop (0 = default 50).
	EMIterations int
	// Obs is an optional observability sink (metrics, tracing, EM
	// telemetry, live progress). Nil disables all telemetry; mined results
	// are bit-identical either way.
	Obs *obs.RunObs
}

// Result exposes the mined opinions.
type Result struct {
	sys *System
	res *pipeline.Result
}

// PartialError reports a mining run that stopped early — cancelled through
// its context, or cut short by a corpus read error. Result always carries
// the consistent partial output: the complete mining result over exactly
// Documents committed documents.
type PartialError struct {
	// Result is the partial result, never nil.
	Result *Result
	// Documents counts the fully processed documents.
	Documents int
	// Err is the cause (errors.Is sees context.Canceled or the read error
	// through it).
	Err error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("surveyor: mining stopped after %d documents: %v", e.Documents, e.Err)
}

// Unwrap exposes the cause.
func (e *PartialError) Unwrap() error { return e.Err }

// wrapPartial converts a pipeline error into the public error surface,
// attaching the already-wrapped result.
func wrapPartial(res *Result, err error) error {
	if err == nil {
		return nil
	}
	var pe *pipeline.PartialError
	if errors.As(err, &pe) {
		return &PartialError{Result: res, Documents: pe.Processed, Err: pe.Err}
	}
	return err
}

func (s *System) pipelineConfig(cfg Config) pipeline.Config {
	pcfg := pipeline.Config{
		Workers: cfg.Workers,
		Rho:     cfg.Rho,
		Version: extract.Version(cfg.PatternVersion),
		Obs:     cfg.Obs,
	}
	if cfg.EMIterations > 0 {
		pcfg.EM = core.DefaultEMConfig()
		pcfg.EM.MaxIterations = cfg.EMIterations
	}
	return pcfg
}

func (s *System) registerPending() {
	if s.dirty {
		s.kb.RegisterLexicon(s.lex)
		s.dirty = false
	}
}

// Mine runs the full pipeline over the documents. It never stops early;
// use MineContext for cancellation.
func (s *System) Mine(docs []Document, cfg Config) *Result {
	res, _ := s.MineContext(context.Background(), docs, cfg)
	return res
}

// MineContext is Mine with document-granular cancellation: when ctx fires
// mid-run, the documents processed so far are still grouped and modelled,
// and that partial result is returned both directly and inside a
// *PartialError. Documents whose processing panics are quarantined (see
// Result.Quarantined) instead of failing the run.
func (s *System) MineContext(ctx context.Context, docs []Document, cfg Config) (*Result, error) {
	s.registerPending()
	pres, err := pipeline.RunContext(ctx, docs, s.kb, s.lex, s.pipelineConfig(cfg))
	res := &Result{sys: s, res: pres}
	return res, wrapPartial(res, err)
}

// StreamOptions controls MineJSONL's corpus ingestion. How much is read
// ahead is not an option: each worker holds its own batch of 64 documents,
// so at most Config.Workers × 64 are in memory.
type StreamOptions struct {
	// Lenient skips and counts malformed or oversized corpus lines instead
	// of failing the run (see Stats.SkippedLines).
	Lenient bool
	// MaxLineBytes caps one corpus line (0 = 4 MiB).
	MaxLineBytes int
}

// MineJSONL mines a JSONL corpus directly from a reader in bounded memory —
// the entry point for corpora larger than RAM. Cancellation and panic
// quarantine behave as in MineContext; a corpus read error likewise
// surfaces as a *PartialError carrying the result over the documents read
// before the failure.
func (s *System) MineJSONL(ctx context.Context, r io.Reader, opts StreamOptions, cfg Config) (*Result, error) {
	s.registerPending()
	it := corpus.NewIterator(r, corpus.IteratorConfig{
		Lenient:      opts.Lenient,
		MaxLineBytes: opts.MaxLineBytes,
	})
	pres, err := pipeline.RunStream(ctx, it, s.kb, s.lex, s.pipelineConfig(cfg))
	res := &Result{sys: s, res: pres}
	return res, wrapPartial(res, err)
}

// QuarantinedDoc identifies one document removed from a run by the panic
// boundary.
type QuarantinedDoc struct {
	// Doc is the document's index in the mined slice (or its sequence
	// number in the JSONL stream).
	Doc int
	// Reason is the rendered panic value.
	Reason string
}

// Quarantined lists the documents the fault boundary removed from the run,
// in document order. Empty on a healthy run. The mined result is exactly
// what a run without those documents would have produced.
func (r *Result) Quarantined() []QuarantinedDoc {
	out := make([]QuarantinedDoc, len(r.res.Quarantined))
	for i, q := range r.res.Quarantined {
		out[i] = QuarantinedDoc{Doc: q.Doc, Reason: q.Reason}
	}
	return out
}

// EntityOpinion is one classified entity-property pair.
type EntityOpinion struct {
	Entity      string // canonical entity name
	EntityID    int
	Property    string
	Pos, Neg    int64 // extracted statement counts
	Probability float64
	Opinion     Opinion
}

// Opinion looks up the mined opinion for an entity by canonical name (or
// alias) and property. The boolean is false when the entity is unknown,
// ambiguous, or its (type, property) group was not modelled.
func (r *Result) Opinion(entityName, property string) (EntityOpinion, bool) {
	cands := r.sys.kb.Candidates(entityName)
	if len(cands) != 1 {
		return EntityOpinion{}, false
	}
	return r.OpinionByID(int(cands[0]), property)
}

// OpinionByID looks up by entity handle. Out-of-range handles resolve
// to false.
func (r *Result) OpinionByID(id int, property string) (EntityOpinion, bool) {
	if id < 0 || id >= r.sys.kb.Len() {
		return EntityOpinion{}, false
	}
	ent := r.sys.kb.Get(kb.EntityID(id))
	op, ok := r.res.Opinion(ent.Type, ent.ID, property)
	if !ok {
		return EntityOpinion{}, false
	}
	return EntityOpinion{
		Entity:      ent.Name,
		EntityID:    id,
		Property:    property,
		Pos:         op.Pos,
		Neg:         op.Neg,
		Probability: op.Probability,
		Opinion:     fromCore(op.Opinion),
	}, true
}

// GroupSummary describes one modelled (type, property) combination.
type GroupSummary struct {
	Type, Property string
	// Fitted model parameters (Section 5): agreement probability and the
	// two emission rates.
	PA, NpPlus, NpMinus float64
	// Entities is the per-entity classification, in KB order, covering
	// every entity of the type.
	Entities []EntityOpinion
}

// Groups returns every modelled (type, property) combination.
func (r *Result) Groups() []GroupSummary {
	out := make([]GroupSummary, len(r.res.Groups))
	for i := range r.res.Groups {
		g := &r.res.Groups[i]
		gs := GroupSummary{
			Type:     g.Key.Type,
			Property: g.Key.Property,
			PA:       g.Model.Params.PA,
			NpPlus:   g.Model.Params.NpPlus,
			NpMinus:  g.Model.Params.NpMinus,
			Entities: make([]EntityOpinion, len(g.Entities)),
		}
		for j, eo := range g.Entities {
			gs.Entities[j] = EntityOpinion{
				Entity:      r.sys.kb.Get(eo.Entity).Name,
				EntityID:    int(eo.Entity),
				Property:    g.Key.Property,
				Pos:         eo.Pos,
				Neg:         eo.Neg,
				Probability: eo.Probability,
				Opinion:     fromCore(eo.Opinion),
			}
		}
		out[i] = gs
	}
	return out
}

// Stats summarises the run (the Section-7.1 numbers at our scale).
type Stats struct {
	Documents         int
	Sentences         int64
	Statements        int64
	DistinctPairs     int   // (entity, property) pairs with evidence
	PairsBeforeFilter int   // (type, property) pairs before ρ
	ModelledGroups    int   // (type, property) pairs after ρ
	OpinionsProduced  int64 // entity-property classifications emitted
	QuarantinedDocs   int   // documents removed by the panic boundary
	SkippedLines      int64 // corpus lines skipped by lenient streaming
	ExtractionMillis  int64
	GroupingMillis    int64
	EMMillis          int64
	IndexMillis       int64 // always 0; kept because the benchmark reads it
	TotalMillis       int64 // whole run, end to end
}

// Stats returns the run statistics.
func (r *Result) Stats() Stats {
	return Stats{
		Documents:         r.res.Documents,
		Sentences:         r.res.Sentences,
		Statements:        r.res.TotalStatements,
		DistinctPairs:     r.res.DistinctPairs,
		PairsBeforeFilter: r.res.PairsBeforeFilter,
		ModelledGroups:    len(r.res.Groups),
		OpinionsProduced:  int64(r.res.Opinions()),
		QuarantinedDocs:   len(r.res.Quarantined),
		SkippedLines:      r.res.SkippedLines,
		ExtractionMillis:  r.res.Timings.Extraction.Milliseconds(),
		GroupingMillis:    r.res.Timings.Grouping.Milliseconds(),
		EMMillis:          r.res.Timings.EM.Milliseconds(),
		IndexMillis:       r.res.Timings.Index.Milliseconds(),
		TotalMillis:       r.res.Timings.Total.Milliseconds(),
	}
}

// SaveEvidence serialises the raw evidence counters as one checksummed
// store frame — the bytes a distributed worker ships for its shard.
func (r *Result) SaveEvidence(w io.Writer) error {
	_, err := wire.EncodeStore(w, r.res.Store)
	return err
}

// String renders a short report.
func (s Stats) String() string {
	health := ""
	if s.QuarantinedDocs > 0 || s.SkippedLines > 0 {
		health = fmt.Sprintf(" quarantined=%d skipped_lines=%d", s.QuarantinedDocs, s.SkippedLines)
	}
	return fmt.Sprintf(
		"documents=%d sentences=%d statements=%d pairs=%d groups=%d/%d opinions=%d%s (extract %dms, group %dms, em %dms, index %dms, total %dms)",
		s.Documents, s.Sentences, s.Statements, s.DistinctPairs,
		s.ModelledGroups, s.PairsBeforeFilter, s.OpinionsProduced, health,
		s.ExtractionMillis, s.GroupingMillis, s.EMMillis, s.IndexMillis, s.TotalMillis)
}

// --- Subjective query answering (the paper's motivating application) --------

// QueryAnswer is one ranked result of a subjective query.
type QueryAnswer struct {
	Entity      string
	Probability float64
	Pos, Neg    int64
}

// Query answers a subjective query string — "big cities", "very cute
// animals", "not dangerous sports" — from the mined opinions: the
// structured-results capability the paper's introduction motivates. The
// answer list is ranked by confidence, then supporting evidence.
func (r *Result) Query(q string) ([]QueryAnswer, error) {
	eng := query.NewEngine(r.sys.kb, r.sys.lex, r.res)
	answers, err := eng.Run(q)
	if err != nil {
		return nil, err
	}
	out := make([]QueryAnswer, len(answers))
	for i, a := range answers {
		out[i] = QueryAnswer{
			Entity:      a.Entity,
			Probability: a.Probability,
			Pos:         a.Evidence.Pos,
			Neg:         a.Evidence.Neg,
		}
	}
	return out, nil
}

// QueryableProperties lists the properties the result can answer queries
// about for a given type.
func (r *Result) QueryableProperties(typ string) []string {
	return query.NewEngine(r.sys.kb, r.sys.lex, r.res).Properties(typ)
}

// --- Subjective-to-objective rules (the paper's future work) ---------------

// Rule is a learned connection between a subjective property and an
// objective attribute: "users call a city big from about 240,000
// inhabitants" (Section 9's outlook).
type Rule struct {
	Type, Property, Attribute string
	Threshold                 float64
	// AppliesAbove is true when the property holds for attribute values at
	// or above the threshold ("big"), false for below ("calm").
	AppliesAbove bool
	Agreement    float64 // training accuracy of the rule
	Support      int     // decided entities it was fitted on
	Correlation  float64 // opinion/attribute rank correlation
	Usable       bool    // strong enough to act on
}

// LearnRule fits the attribute bound that best separates the mined
// opinions of a (type, property) group. The boolean is false when the
// group was not modelled, the attribute is missing, or no boundary exists.
func (r *Result) LearnRule(typ, property, attribute string) (Rule, bool) {
	g, ok := r.res.Group(typ, property)
	if !ok {
		return Rule{}, false
	}
	attrs := make([]float64, len(g.Entities))
	ops := make([]core.Opinion, len(g.Entities))
	seen := false
	for i, eo := range g.Entities {
		e := r.sys.kb.Get(eo.Entity)
		if _, has := e.Attributes[attribute]; has {
			seen = true
		}
		attrs[i] = e.Attr(attribute, 0)
		ops[i] = eo.Opinion
	}
	if !seen {
		return Rule{}, false
	}
	rule, ok := threshold.Learn(attrs, ops)
	if !ok {
		return Rule{}, false
	}
	return Rule{
		Type: typ, Property: property, Attribute: attribute,
		Threshold:    rule.Threshold,
		AppliesAbove: rule.Direction == threshold.Above,
		Agreement:    rule.Agreement,
		Support:      rule.Support,
		Correlation:  rule.Correlation,
		Usable:       rule.Usable(),
	}, true
}

// String renders the rule as a human-readable bound.
func (r Rule) String() string {
	dir := ">="
	if !r.AppliesAbove {
		dir = "<"
	}
	return fmt.Sprintf("%s %s when %s %s %.4g (agreement %.0f%%, support %d)",
		r.Property, r.Type, r.Attribute, dir, r.Threshold, 100*r.Agreement, r.Support)
}

// --- Low-level model API ---------------------------------------------------

// Counts is the evidence tuple ⟨C+, C−⟩ for one entity.
type Counts struct {
	Pos, Neg int
}

// Model is a fitted user-behaviour model for one (type, property)
// combination.
type Model struct {
	// PA is the probability that an author agrees with the dominant
	// opinion.
	PA float64
	// NpPlus and NpMinus are the expected statement volumes n·p+S, n·p−S.
	NpPlus, NpMinus float64

	inner core.Model
}

// FitModel learns the model from per-entity statement counts alone — the
// paper's Algorithm 2 with no text processing. Entities with zero counts
// participate and are classifiable.
func FitModel(tuples []Counts) Model {
	ct := make([]core.Tuple, len(tuples))
	for i, c := range tuples {
		ct[i] = core.Tuple{Pos: c.Pos, Neg: c.Neg}
	}
	m, _ := core.FitEM(ct, core.DefaultEMConfig())
	return Model{PA: m.Params.PA, NpPlus: m.Params.NpPlus, NpMinus: m.Params.NpMinus, inner: m}
}

// ProbabilityPositive returns Pr(dominant opinion is positive | counts).
func (m Model) ProbabilityPositive(c Counts) float64 {
	return m.inner.PosteriorPositive(core.Tuple{Pos: c.Pos, Neg: c.Neg})
}

// Decide maps counts to an opinion under the fitted model.
func (m Model) Decide(c Counts) Opinion {
	return fromCore(core.Decide(m.ProbabilityPositive(c)))
}

// MajorityVote is the naive baseline of Section 7.4, for comparison.
func MajorityVote(c Counts) Opinion {
	switch {
	case c.Pos > c.Neg:
		return Positive
	case c.Neg > c.Pos:
		return Negative
	default:
		return Unsolved
	}
}

// EvidenceCounts re-exports the raw counters of a result for external
// analysis: one entry per (entity, property) pair with evidence.
type EvidenceCounts struct {
	Entity   string
	Property string
	Pos, Neg int64
}

// Evidence lists the non-zero counters of the run.
func (r *Result) Evidence() []EvidenceCounts {
	snap := r.res.Store.Snapshot()
	out := make([]EvidenceCounts, len(snap))
	for i, e := range snap {
		out[i] = EvidenceCounts{
			Entity:   r.sys.kb.Get(e.Entity).Name,
			Property: e.Property,
			Pos:      e.Pos,
			Neg:      e.Neg,
		}
	}
	return out
}
