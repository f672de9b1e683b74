// Package query implements the application layer the paper motivates in
// its introduction: answering subjective web queries ("big cities",
// "cute animals", "not dangerous sports") from the mined opinion store,
// the way a search engine would answer objective queries from a knowledge
// base. "Upon receipt of a subjective query, the search engine can
// exploit high-confidence entity-property associations and offer links to
// supporting content on the Web as query result" (Section 2).
package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/evidence"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/pipeline"
)

// Query is a parsed subjective query.
type Query struct {
	Property string // normalised adjective phrase, e.g. "big" or "very big"
	Type     string // entity type, e.g. "city"
	Negated  bool   // "not dangerous sports"
	// MinProbability filters results; default 0.5 per Algorithm 1, raised
	// to trade recall for precision.
	MinProbability float64
}

// Answer is one ranked result.
type Answer struct {
	Entity      string
	EntityID    kb.EntityID
	Probability float64 // confidence that the (possibly negated) property applies
	Evidence    struct {
		Pos, Neg int64
	}
}

// Engine answers subjective queries against a pipeline result.
type Engine struct {
	kb  *kb.KB
	lex *lexicon.Lexicon
	res *pipeline.Result
}

// NewEngine builds an engine over a completed mining run.
func NewEngine(base *kb.KB, lex *lexicon.Lexicon, res *pipeline.Result) *Engine {
	return &Engine{kb: base, lex: lex, res: res}
}

// Parse interprets a query string of the shape the paper's examples use:
// an optional negation, degree adverbs and an adjective, then a type noun
// — "big cities", "very big cities", "not dangerous sports". The type
// noun may be singular or plural.
func (e *Engine) Parse(q string) (Query, error) {
	fields := strings.Fields(strings.ToLower(strings.TrimSpace(q)))
	if len(fields) < 2 {
		return Query{}, fmt.Errorf("query %q: want [not] [adverb] adjective type", q)
	}
	out := Query{MinProbability: 0.5}
	i := 0
	if e.lex.IsNegation(fields[i]) {
		out.Negated = true
		i++
	}
	var propParts []string
	for i < len(fields)-1 && e.lex.HasTag(fields[i], lexicon.Adv) {
		propParts = append(propParts, fields[i])
		i++
	}
	if i >= len(fields)-1 {
		return Query{}, fmt.Errorf("query %q: no adjective before the type noun", q)
	}
	if !e.lex.HasTag(fields[i], lexicon.Adj) {
		return Query{}, fmt.Errorf("query %q: %q is not a known adjective", q, fields[i])
	}
	propParts = append(propParts, fields[i])
	i++
	typNoun := fields[i]
	if i != len(fields)-1 {
		return Query{}, fmt.Errorf("query %q: trailing words after the type noun", q)
	}
	typ, ok := e.resolveType(typNoun)
	if !ok {
		return Query{}, fmt.Errorf("query %q: unknown entity type %q", q, typNoun)
	}
	out.Property = strings.Join(propParts, " ")
	out.Type = typ
	return out, nil
}

// resolveType maps a singular or plural type noun to a KB type.
func (e *Engine) resolveType(noun string) (string, bool) {
	for _, t := range e.kb.Types() {
		if noun == t || noun == strings.ToLower(kb.Pluralize(t)) {
			return t, true
		}
	}
	return "", false
}

// Run parses and executes a query string.
func (e *Engine) Run(q string) ([]Answer, error) {
	parsed, err := e.Parse(q)
	if err != nil {
		return nil, err
	}
	return e.Execute(parsed)
}

// Execute answers a parsed query: entities of the type whose mined
// dominant opinion matches, ranked by confidence.
func (e *Engine) Execute(q Query) ([]Answer, error) {
	group, ok := e.res.Group(q.Type, q.Property)
	if !ok {
		return nil, fmt.Errorf("no mined opinions for %q %s (below ρ or never stated)",
			q.Property, q.Type)
	}
	minP := q.MinProbability
	if minP < 0.5 {
		minP = 0.5
	}
	var out []Answer
	for _, eo := range group.Entities {
		p := eo.Probability
		if q.Negated {
			p = 1 - p
		}
		if p <= minP || core.Decide(p) != core.OpinionPositive {
			continue
		}
		a := Answer{
			Entity:      e.kb.Get(eo.Entity).Name,
			EntityID:    eo.Entity,
			Probability: p,
		}
		a.Evidence.Pos = eo.Pos
		a.Evidence.Neg = eo.Neg
		out = append(out, a)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Probability != out[b].Probability {
			return out[a].Probability > out[b].Probability
		}
		// Confidence ties (many probabilities saturate at ≈1): more
		// supporting evidence ranks higher, mirroring "offer links to
		// supporting content" — entities with content to link win.
		ea := out[a].Evidence.Pos - out[a].Evidence.Neg
		eb := out[b].Evidence.Pos - out[b].Evidence.Neg
		if ea != eb {
			return ea > eb
		}
		return out[a].Entity < out[b].Entity
	})
	return out, nil
}

// Properties lists the modelled properties for a type — what the engine
// can answer about it: the one contiguous, already sorted run of the
// result's groups that starts at the type's first key.
func (e *Engine) Properties(typ string) []string {
	groups := e.res.Groups
	i, _ := slices.BinarySearchFunc(groups, evidence.GroupKey{Type: typ},
		func(g pipeline.GroupResult, k evidence.GroupKey) int { return g.Key.Compare(k) })
	var out []string
	for ; i < len(groups) && groups[i].Key.Type == typ; i++ {
		out = append(out, groups[i].Key.Property)
	}
	return out
}
