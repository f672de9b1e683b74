package testkit

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/pipeline"
)

// diffScale keeps each full-KB pipeline run fast enough that the matrix of
// seeds × worker counts stays comfortable under the race detector.
const diffScale = 0.2

// TestDifferentialAgainstReference is the core oracle: for several corpus
// seeds, every extraction pattern version and several worker counts, the
// parallel pipeline must produce exactly the same result — counts, fitted
// parameters, per-entity opinions — as the single-threaded reference
// implementation. Version 0 is the default (V4).
func TestDifferentialAgainstReference(t *testing.T) {
	for _, c := range []struct {
		seed    uint64
		version extract.Version
		workers []int
	}{
		{1, 0, []int{1, 2, 8}},
		{2, 0, []int{1, 2, 8}},
		{3, 0, []int{1, 2, 8}},
		{1, extract.V1, []int{1, 8}},
		{1, extract.V2, []int{1, 8}},
		{1, extract.V3, []int{1, 8}},
		{1, extract.V4, []int{1, 8}},
	} {
		w := NewWorld(c.seed, diffScale)
		cfg := pipeline.Config{Rho: 10, Version: c.version}
		ref := ReferenceRun(w.Docs(), w.KB, w.Lex, cfg)
		if len(ref.Groups) == 0 {
			t.Fatalf("seed %d version %d: reference modelled no groups — fixture too small", c.seed, c.version)
		}
		if ref.TotalStatements == 0 {
			t.Fatalf("seed %d version %d: reference extracted nothing", c.seed, c.version)
		}
		for _, workers := range c.workers {
			cfg := cfg
			cfg.Workers = workers
			res := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)
			if diffs := DiffReference(ref, res); len(diffs) > 0 {
				t.Errorf("seed %d version %d workers %d: pipeline diverges from reference:\n  %s",
					c.seed, c.version, workers, strings.Join(diffs, "\n  "))
			}
		}
	}
}

// TestDifferentialReduceStore asserts the reduce-only entry point agrees
// with the full run when fed the full run's own store and input statistics.
func TestDifferentialReduceStore(t *testing.T) {
	w := NewWorld(2, diffScale)
	cfg := pipeline.Config{Rho: 10, Workers: 4}
	full := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)
	replay := pipeline.ReduceStore(full.Store, w.KB, cfg,
		pipeline.ReduceStats{Sentences: full.Sentences, Documents: full.Documents})
	if diffs := DiffResults(full, replay); len(diffs) > 0 {
		t.Errorf("ReduceStore diverges from Run:\n  %s", strings.Join(diffs, "\n  "))
	}
}

// diffGroupsOnly compares the modelled groups of two results, skipping the
// input-side statistics a reduce over a bare store cannot know (Documents,
// Sentences).
func diffGroupsOnly(a, b *pipeline.Result) []string {
	d := &differ{}
	d.check(a.TotalStatements == b.TotalStatements,
		"TotalStatements: %d vs %d", a.TotalStatements, b.TotalStatements)
	d.check(a.DistinctPairs == b.DistinctPairs, "DistinctPairs: %d vs %d", a.DistinctPairs, b.DistinctPairs)
	d.diffGroups(a.Groups, b.Groups)
	return d.out
}

// TestReferenceSanity spot-checks that the reference itself recovers the
// latent truth on the tiny fixture — guarding against the oracle and the
// pipeline agreeing on a degenerate answer.
func TestReferenceSanity(t *testing.T) {
	w := NewTinyWorld(5, 1)
	ref := ReferenceRun(w.Docs(), w.KB, w.Lex, pipeline.Config{Rho: 20})
	kitten := w.KB.Candidates("kitten")[0]
	op, ok := ref.Opinion(kitten, "cute")
	if !ok {
		t.Fatal("kitten/cute not classified by reference")
	}
	if op.Opinion != core.OpinionPositive {
		t.Fatalf("reference says kitten cute = %v (p=%v)", op.Opinion, op.Probability)
	}
	spider := w.KB.Candidates("spider")[0]
	op, ok = ref.Opinion(spider, "cute")
	if !ok {
		t.Fatal("spider/cute not classified by reference")
	}
	if op.Opinion != core.OpinionNegative {
		t.Fatalf("reference says spider cute = %v (p=%v)", op.Opinion, op.Probability)
	}
}

// TestGroupLookupIndex pins the indexed Result.Group against a linear
// scan over Groups.
func TestGroupLookupIndex(t *testing.T) {
	w := NewWorld(3, diffScale)
	res := pipeline.Run(w.Docs(), w.KB, w.Lex, pipeline.Config{Rho: 10})
	if len(res.Groups) == 0 {
		t.Fatal("no groups modelled")
	}
	for i := range res.Groups {
		g, ok := res.Group(res.Groups[i].Key.Type, res.Groups[i].Key.Property)
		if !ok {
			t.Fatalf("Group(%v) not found via index", res.Groups[i].Key)
		}
		if g != &res.Groups[i] {
			t.Fatalf("Group(%v) returned a different GroupResult pointer", res.Groups[i].Key)
		}
	}
	if _, ok := res.Group("animal", "no-such-property"); ok {
		t.Fatal("lookup of unmodelled pair succeeded")
	}
}
