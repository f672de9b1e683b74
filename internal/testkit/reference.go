package testkit

import (
	"sort"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/pipeline"
	"repro/internal/tagger"
)

// Reference is the output of ReferenceRun. It mirrors the comparable
// fields of pipeline.Result; Counts replaces the concurrent evidence
// store with a plain map.
type Reference struct {
	Counts            map[evidence.Key]evidence.Counts
	Groups            []pipeline.GroupResult
	TotalStatements   int64
	DistinctPairs     int
	PairsBeforeFilter int
	Sentences         int64
	Documents         int
}

// ReferenceRun executes Algorithm 1 with no concurrency and no shared
// machinery beyond the deterministic leaf primitives (tokenizer, tagger,
// parser, extractor, EM): one plain loop over documents accumulating into
// a plain map, one plain grouping pass, one sequential EM loop. Every leaf
// call gets nil buffers and a fresh scratch, so nothing is reused between
// sentences. It is the oracle the parallel pipeline.Run is differentially
// tested against.
func ReferenceRun(docs []corpus.Document, base *kb.KB, lex *lexicon.Lexicon, cfg pipeline.Config) *Reference {
	ref := &Reference{
		Counts:    map[evidence.Key]evidence.Counts{},
		Documents: len(docs),
	}
	posTagger := pos.New(lex)
	parser := depparse.New(lex)
	entTagger := tagger.New(base, lex)
	extractor := extract.NewVersion(lex, extractVersion(cfg))

	for _, doc := range docs {
		sents, _ := token.SplitSentencesInto(nil, nil, doc.Text)
		for _, sent := range sents {
			ref.Sentences++
			tagged := posTagger.TagInto(nil, sent)
			mentions := entTagger.TagInto(nil, new(tagger.Scratch), tagged)
			if len(mentions) == 0 {
				continue
			}
			tree := parser.ParseInto(new(depparse.Scratch), tagged)
			for _, st := range extractor.ExtractInto(nil, tree, mentions) {
				ref.add(st)
			}
		}
	}
	ref.finish(base, cfg)
	return ref
}

func extractVersion(cfg pipeline.Config) extract.Version {
	if cfg.Version == 0 {
		return extract.V4
	}
	return cfg.Version
}

func (r *Reference) add(st extract.Statement) {
	k := evidence.Key{Entity: st.Entity, Property: st.Property}
	c := r.Counts[k]
	if st.Polarity == extract.Positive {
		c.Pos++
	} else {
		c.Neg++
	}
	r.Counts[k] = c
	r.TotalStatements++
}

// finish performs grouping (with the ρ filter and zero-evidence
// expansion) and the per-group EM fit, sequentially.
func (r *Reference) finish(base *kb.KB, cfg pipeline.Config) {
	rho := cfg.Rho
	if rho == 0 {
		rho = 100
	}
	em := cfg.EM
	if em.MaxIterations == 0 {
		em = core.DefaultEMConfig()
	}
	r.DistinctPairs = len(r.Counts)

	// Group by (most notable type, property) of the evidence keys.
	type agg struct {
		counts map[kb.EntityID]evidence.Counts
		total  int64
	}
	// The oracle iterates its evidence in sorted order — the grouping fold
	// is commutative either way, but the reference implementation should
	// not even look order-dependent.
	ordered := make([]evidence.Key, 0, len(r.Counts))
	for k := range r.Counts {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].Entity != ordered[b].Entity {
			return ordered[a].Entity < ordered[b].Entity
		}
		return ordered[a].Property < ordered[b].Property
	})
	groups := map[evidence.GroupKey]*agg{}
	for _, k := range ordered {
		c := r.Counts[k]
		gk := evidence.GroupKey{Type: base.Get(k.Entity).Type, Property: k.Property}
		g := groups[gk]
		if g == nil {
			g = &agg{counts: map[kb.EntityID]evidence.Counts{}}
			groups[gk] = g
		}
		g.counts[k.Entity] = c
		g.total += c.Total()
	}
	r.PairsBeforeFilter = len(groups)

	var keys []evidence.GroupKey
	for gk, g := range groups {
		if g.total >= rho {
			keys = append(keys, gk)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Type != keys[b].Type {
			return keys[a].Type < keys[b].Type
		}
		return keys[a].Property < keys[b].Property
	})

	for _, gk := range keys {
		g := groups[gk]
		ids := base.OfType(gk.Type)
		tuples := make([]core.Tuple, len(ids))
		for i, id := range ids {
			c := g.counts[id]
			tuples[i] = core.Tuple{Pos: int(c.Pos), Neg: int(c.Neg)}
		}
		model, results, trace := core.FitAndClassify(tuples, em)
		gr := pipeline.GroupResult{Key: gk, Model: model, Trace: trace,
			Entities: make([]pipeline.EntityOpinion, len(ids))}
		for i, id := range ids {
			c := g.counts[id]
			gr.Entities[i] = pipeline.EntityOpinion{
				Entity:      id,
				Pos:         c.Pos,
				Neg:         c.Neg,
				Probability: results[i].Probability,
				Opinion:     results[i].Opinion,
			}
		}
		r.Groups = append(r.Groups, gr)
	}
}

// Opinion mirrors pipeline.Result.Opinion over the reference groups.
func (r *Reference) Opinion(e kb.EntityID, property string) (pipeline.EntityOpinion, bool) {
	for gi := range r.Groups {
		if r.Groups[gi].Key.Property != property {
			continue
		}
		for _, eo := range r.Groups[gi].Entities {
			if eo.Entity == e {
				return eo, true
			}
		}
	}
	return pipeline.EntityOpinion{}, false
}
