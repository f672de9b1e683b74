package testkit

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// diffScale keeps each full-KB pipeline run fast enough that the matrix of
// seeds × worker counts stays comfortable under the race detector.
const diffScale = 0.2

// TestDifferentialAgainstReference is the core oracle: for several corpus
// seeds and worker counts, the parallel pipeline must produce exactly the
// same result — counts, fitted parameters, per-entity opinions — as the
// single-threaded reference implementation.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		w := NewWorld(seed, diffScale)
		cfg := pipeline.Config{Rho: 10}
		ref := ReferenceRun(w.Docs(), w.KB, w.Lex, cfg)
		if len(ref.Groups) == 0 {
			t.Fatalf("seed %d: reference modelled no groups — fixture too small", seed)
		}
		if ref.TotalStatements == 0 {
			t.Fatalf("seed %d: reference extracted nothing", seed)
		}
		for _, workers := range []int{1, 2, 8} {
			cfg := cfg
			cfg.Workers = workers
			res := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)
			if diffs := DiffReference(ref, res); len(diffs) > 0 {
				t.Errorf("seed %d workers %d: pipeline diverges from reference:\n  %s",
					seed, workers, strings.Join(diffs, "\n  "))
			}
		}
	}
}

// TestDifferentialAnnotatedPath asserts the annotate-once path
// (Annotate + RunAnnotated) agrees with both the direct pipeline and the
// reference over annotations.
func TestDifferentialAnnotatedPath(t *testing.T) {
	w := NewWorld(1, diffScale)
	cfg := pipeline.Config{Rho: 10, Workers: 4}

	direct := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)
	annotated := pipeline.Annotate(w.Docs(), w.KB, w.Lex, 4)
	viaAnn := pipeline.RunAnnotated(annotated, w.KB, w.Lex, cfg)
	if diffs := DiffResults(direct, viaAnn); len(diffs) > 0 {
		t.Errorf("RunAnnotated diverges from Run:\n  %s", strings.Join(diffs, "\n  "))
	}

	ref := ReferenceRunAnnotated(annotated, w.KB, w.Lex, cfg)
	if diffs := DiffReference(ref, viaAnn); len(diffs) > 0 {
		t.Errorf("RunAnnotated diverges from annotated reference:\n  %s", strings.Join(diffs, "\n  "))
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
