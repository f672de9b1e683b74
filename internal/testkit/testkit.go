// Package testkit is the correctness scaffolding for the concurrent
// Surveyor pipeline: a deliberately simple single-threaded reference
// implementation of Algorithm 1 (ReferenceRun), comparison helpers that
// diff a parallel pipeline.Result against it field by field, and seeded
// corpus fixtures shared by the differential and metamorphic suites.
//
// The package exists so that every future scaling change (sharding,
// batching, caching) can be proven equivalent to a trivially auditable
// baseline instead of being eyeballed. The differential tests in this
// package assert bit-identical agreement — the pipeline's phases are
// deterministic given the same inputs, only the schedule varies — and the
// metamorphic tests check the aggregation invariances the model implies:
// document order, worker count, polarity flips, corpus duplication, and
// evidence-store merges.
package testkit

import (
	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
)

// World is a seeded end-to-end fixture: knowledge base, lexicon (with the
// KB registered), and a generated snapshot with known latent truth.
type World struct {
	KB       *kb.KB
	Lex      *lexicon.Lexicon
	Snapshot *corpus.Snapshot
}

// Docs returns the snapshot's documents.
func (w *World) Docs() []corpus.Document { return w.Snapshot.Documents }

// NewWorld builds the standard differential-test fixture: the built-in
// evaluation knowledge base and the Table-2 specs, scaled down so a full
// pipeline run stays fast enough for race-enabled CI. Deterministic in
// seed.
func NewWorld(seed uint64, scale float64) *World {
	base := kb.Default(seed)
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	snap := corpus.NewGenerator(base, corpus.Table2Specs(),
		corpus.Config{Seed: seed, Scale: scale}).Generate()
	return &World{KB: base, Lex: lex, Snapshot: snap}
}

// NewTinyWorld builds a minimal single-combination fixture (16 animals,
// one "cute" spec) for tests that need many pipeline runs — the
// metamorphic suite and the example smoke tests.
func NewTinyWorld(seed uint64, scale float64) *World {
	base := kb.New()
	animals := []struct {
		name string
		cute float64
	}{
		{"kitten", 0.98}, {"puppy", 0.97}, {"koala", 0.95}, {"panda", 0.93},
		{"otter", 0.9}, {"rabbit", 0.9}, {"squirrel", 0.85}, {"pony", 0.9},
		{"spider", 0.05}, {"scorpion", 0.03}, {"cobra", 0.05}, {"wasp", 0.04},
		{"rat", 0.2}, {"hyena", 0.15}, {"piranha", 0.06}, {"slug", 0.1},
	}
	for _, a := range animals {
		base.SetAttr(base.Add(kb.Entity{Name: a.name, Type: "animal"}), "cuteness", a.cute)
	}
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	specs := []corpus.Spec{{
		Type: "animal", Property: "cute", PA: 0.92, NpPlus: 35, NpMinus: 4,
		PosFraction: corpus.SigmoidFraction("cuteness", 0.5, 0.1, 0.95),
	}}
	snap := corpus.NewGenerator(base, specs, corpus.Config{Seed: seed, Scale: scale}).Generate()
	return &World{KB: base, Lex: lex, Snapshot: snap}
}
