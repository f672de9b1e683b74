package testkit

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// The metamorphic suite checks the invariances the paper's aggregation
// model implies, with no oracle needed: transformed input, predictable
// output relation. Related aggregation systems (Subjective Databases;
// unsupervised opinion aggregation) rely on exactly these symmetries.

// TestPermutationInvariance: the pipeline result must not depend on
// document order — evidence counting is commutative.
func TestPermutationInvariance(t *testing.T) {
	w := NewWorld(1, diffScale)
	cfg := pipeline.Config{Rho: 10, Workers: 4}
	base := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)

	rng := stats.NewRNG(99)
	for trial := 0; trial < 3; trial++ {
		shuffled := append([]corpus.Document(nil), w.Docs()...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		res := pipeline.Run(shuffled, w.KB, w.Lex, cfg)
		if diffs := DiffResults(base, res); len(diffs) > 0 {
			t.Errorf("trial %d: document permutation changed the result:\n  %s",
				trial, strings.Join(diffs, "\n  "))
		}
	}
}

// TestWorkerCountInvariance: the worker count is a schedule knob, never a
// semantic one.
func TestWorkerCountInvariance(t *testing.T) {
	w := NewWorld(2, diffScale)
	cfg := pipeline.Config{Rho: 10, Workers: 1}
	base := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)
	for _, workers := range []int{2, 3, 5, 8, 16} {
		cfg.Workers = workers
		res := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)
		if diffs := DiffResults(base, res); len(diffs) > 0 {
			t.Errorf("workers=%d changed the result:\n  %s", workers, strings.Join(diffs, "\n  "))
		}
	}
}

// flipStore swaps every ⟨C+, C−⟩ tuple — the evidence-level image of
// negating every sentence in the corpus.
func flipStore(s *evidence.Store) *evidence.Store {
	out := evidence.NewStore()
	for _, e := range s.Snapshot() {
		out.AddCounts(e.Key, evidence.Counts{Pos: e.Neg, Neg: e.Pos})
	}
	return out
}

// TestPolarityFlipSymmetry: negating every statement must flip decisions
// and swap the fitted emission rates np+S and np−S. The model is symmetric
// up to the EM initialisation heuristics, so rates are compared with a
// tolerance and decisions only where the original run was confident.
func TestPolarityFlipSymmetry(t *testing.T) {
	w := NewWorld(1, diffScale)
	cfg := pipeline.Config{Rho: 10, Workers: 4}
	orig := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)
	flipped := pipeline.ReduceStore(flipStore(orig.Store), w.KB, cfg, pipeline.ReduceStats{})

	if len(flipped.Groups) != len(orig.Groups) {
		t.Fatalf("flip changed the group set: %d vs %d", len(flipped.Groups), len(orig.Groups))
	}
	var checkedGroups, checkedDecisions int
	for gi := range orig.Groups {
		g := &orig.Groups[gi]
		fg, ok := flipped.Group(g.Key.Type, g.Key.Property)
		if !ok {
			t.Fatalf("group %v lost by flip", g.Key)
		}
		// Identifiability guard: a group whose dominant-opinion split is
		// near 50/50 can fit either labelling; compare rates only when the
		// original fit is well-separated.
		if g.Model.Params.NpPlus < 2*g.Model.Params.NpMinus {
			continue
		}
		checkedGroups++
		if !approxEqual(fg.Model.Params.NpPlus, g.Model.Params.NpMinus, 0.35) ||
			!approxEqual(fg.Model.Params.NpMinus, g.Model.Params.NpPlus, 0.35) {
			t.Errorf("group %v: flipped rates (np+=%.2f np-=%.2f) are not the swap of (np+=%.2f np-=%.2f)",
				g.Key, fg.Model.Params.NpPlus, fg.Model.Params.NpMinus,
				g.Model.Params.NpPlus, g.Model.Params.NpMinus)
		}
		for i, eo := range g.Entities {
			feo := fg.Entities[i]
			if feo.Entity != eo.Entity {
				t.Fatalf("group %v: entity order changed by flip", g.Key)
			}
			if feo.Pos != eo.Neg || feo.Neg != eo.Pos {
				t.Fatalf("group %v entity %v: counts not swapped", g.Key, eo.Entity)
			}
			// Decisions must flip wherever the original was confident.
			if math.Abs(eo.Probability-0.5) < 0.2 || math.Abs(feo.Probability-0.5) < 0.2 {
				continue
			}
			checkedDecisions++
			if feo.Opinion != -eo.Opinion {
				t.Errorf("group %v entity %v: opinion %v did not flip (flipped run says %v, p=%.3f vs %.3f)",
					g.Key, eo.Entity, eo.Opinion, feo.Opinion, eo.Probability, feo.Probability)
			}
		}
	}
	if checkedGroups == 0 || checkedDecisions == 0 {
		t.Fatalf("symmetry check was vacuous: %d groups, %d decisions compared",
			checkedGroups, checkedDecisions)
	}
}

// TestPosteriorFlipSymmetry pins the model-level identity behind the
// corpus-level test: swapping a tuple AND the emission rates complements
// the posterior exactly.
func TestPosteriorFlipSymmetry(t *testing.T) {
	m := core.Model{Params: core.Params{PA: 0.88, NpPlus: 40, NpMinus: 3}}
	sw := core.Model{Params: core.Params{PA: 0.88, NpPlus: 3, NpMinus: 40}}
	for _, c := range []core.Tuple{
		{Pos: 0, Neg: 0}, {Pos: 5, Neg: 1}, {Pos: 1, Neg: 5},
		{Pos: 40, Neg: 2}, {Pos: 0, Neg: 7}, {Pos: 13, Neg: 13},
	} {
		p := m.PosteriorPositive(c)
		q := sw.PosteriorPositive(core.Tuple{Pos: c.Neg, Neg: c.Pos})
		if math.Abs((1-p)-q) > 1e-9 {
			t.Errorf("tuple %+v: posterior %v, swapped %v; want complements", c, p, q)
		}
	}
}

// TestDuplicationStability: doubling the corpus doubles every counter
// exactly and must not overturn confident opinions — more of the same
// evidence can only sharpen decisions.
func TestDuplicationStability(t *testing.T) {
	w := NewWorld(3, diffScale)
	cfg := pipeline.Config{Rho: 10, Workers: 4}
	orig := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)
	doubled := pipeline.Run(append(append([]corpus.Document(nil), w.Docs()...), w.Docs()...),
		w.KB, w.Lex, cfg)

	if doubled.TotalStatements != 2*orig.TotalStatements {
		t.Fatalf("TotalStatements: %d, want exactly 2×%d", doubled.TotalStatements, orig.TotalStatements)
	}
	if doubled.Sentences != 2*orig.Sentences {
		t.Fatalf("Sentences: %d, want exactly 2×%d", doubled.Sentences, orig.Sentences)
	}
	if doubled.DistinctPairs != orig.DistinctPairs {
		t.Fatalf("DistinctPairs changed: %d vs %d", doubled.DistinctPairs, orig.DistinctPairs)
	}
	snapO, snapD := orig.Store.Snapshot(), doubled.Store.Snapshot()
	if len(snapO) != len(snapD) {
		t.Fatalf("store keys changed: %d vs %d", len(snapO), len(snapD))
	}
	for i := range snapO {
		if snapD[i].Key != snapO[i].Key ||
			snapD[i].Pos != 2*snapO[i].Pos || snapD[i].Neg != 2*snapO[i].Neg {
			t.Fatalf("entry %d: %+v is not the exact doubling of %+v", i, snapD[i], snapO[i])
		}
	}

	checked, flipped := 0, 0
	for gi := range orig.Groups {
		g := &orig.Groups[gi]
		dg, ok := doubled.Group(g.Key.Type, g.Key.Property)
		if !ok {
			t.Fatalf("group %v lost by duplication", g.Key)
		}
		for i, eo := range g.Entities {
			if math.Abs(eo.Probability-0.5) < 0.2 {
				continue
			}
			checked++
			if dg.Entities[i].Opinion != eo.Opinion {
				flipped++
				t.Logf("group %v entity %v: %v (p=%.3f) became %v (p=%.3f)",
					g.Key, eo.Entity, eo.Opinion, eo.Probability,
					dg.Entities[i].Opinion, dg.Entities[i].Probability)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no confident opinions to check")
	}
	if rate := float64(flipped) / float64(checked); rate > 0.01 {
		t.Errorf("duplication overturned %d of %d confident opinions (%.1f%%)",
			flipped, checked, 100*rate)
	}
}

// TestMergeCommutativeAssociative: shard merging (the pipeline's reduce
// step) must not depend on merge order or grouping.
func TestMergeCommutativeAssociative(t *testing.T) {
	rng := stats.NewRNG(7)
	randomStore := func(n int) *evidence.Store {
		s := evidence.NewStore()
		for i := 0; i < n; i++ {
			st := extract.Statement{
				Entity:   kb.EntityID(rng.IntRange(0, 50)),
				Property: []string{"cute", "big", "dangerous", "calm"}[rng.IntRange(0, 3)],
				Polarity: extract.Positive,
			}
			if rng.Bernoulli(0.3) {
				st.Polarity = extract.Negative
			}
			s.Add(st)
		}
		return s
	}
	clone := func(s *evidence.Store) *evidence.Store {
		out := evidence.NewStore()
		out.Merge(s)
		return out
	}
	equal := func(a, b *evidence.Store) bool {
		sa, sb := a.Snapshot(), b.Snapshot()
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
		return true
	}

	a, b, c := randomStore(400), randomStore(300), randomStore(200)

	ab := clone(a)
	ab.Merge(b)
	ba := clone(b)
	ba.Merge(a)
	if !equal(ab, ba) {
		t.Error("Merge is not commutative: A∪B != B∪A")
	}

	abc1 := clone(ab)
	abc1.Merge(c)
	bc := clone(b)
	bc.Merge(c)
	abc2 := clone(a)
	abc2.Merge(bc)
	if !equal(abc1, abc2) {
		t.Error("Merge is not associative: (A∪B)∪C != A∪(B∪C)")
	}

	// Identity: merging an empty store changes nothing.
	ae := clone(a)
	ae.Merge(evidence.NewStore())
	if !equal(a, ae) {
		t.Error("merging the empty store changed the operand")
	}
}

// TestShardedExtractionMerge: splitting the corpus into shards, running
// extraction per shard, and merging the stores must equal the single-run
// store — the map/reduce decomposition the paper ran on 5000 nodes.
func TestShardedExtractionMerge(t *testing.T) {
	w := NewTinyWorld(9, 0.6)
	cfg := pipeline.Config{Rho: 10, Workers: 2}
	whole := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)

	merged := evidence.NewStore()
	docs := w.Docs()
	for lo := 0; lo < len(docs); lo += 7 {
		hi := lo + 7
		if hi > len(docs) {
			hi = len(docs)
		}
		part := pipeline.Run(docs[lo:hi], w.KB, w.Lex, cfg)
		merged.Merge(part.Store)
	}
	mergedRes := pipeline.ReduceStore(merged, w.KB, cfg, pipeline.ReduceStats{})
	if diffs := diffGroupsOnly(whole, mergedRes); len(diffs) > 0 {
		t.Errorf("sharded extraction + merge diverges from single run:\n  %s",
			strings.Join(diffs, "\n  "))
	}
}

// TestEpochBoundaryInvariance: the incremental miner's final snapshot must
// not depend on WHICH epoch a document lands in, only on the global
// multiset of documents — the epoch-level sibling of document-permutation
// invariance. Contiguous, round-robin, and shuffled assignments of the
// same corpus into the same number of epochs must publish bit-identical
// final snapshots.
func TestEpochBoundaryInvariance(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 10, Workers: 4}
	const n = 4

	base, _, err := RunEpochs(SplitContiguous(docs, n), w.KB, w.Lex, cfg)
	if err != nil {
		t.Fatal(err)
	}

	roundRobin := make([][]corpus.Document, n)
	for i := range docs {
		roundRobin[i%n] = append(roundRobin[i%n], docs[i])
	}
	res, _, err := RunEpochs(roundRobin, w.KB, w.Lex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := DiffResults(base, res); len(diffs) > 0 {
		t.Errorf("round-robin epoch assignment changed the final snapshot:\n  %s",
			strings.Join(diffs, "\n  "))
	}

	rng := stats.NewRNG(41)
	for trial := 0; trial < 2; trial++ {
		shuffled := append([]corpus.Document(nil), docs...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		res, _, err := RunEpochs(SplitContiguous(shuffled, n), w.KB, w.Lex, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diffs := DiffResults(base, res); len(diffs) > 0 {
			t.Errorf("trial %d: shuffled epoch assignment changed the final snapshot:\n  %s",
				trial, strings.Join(diffs, "\n  "))
		}
	}
}

func approxEqual(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= relTol*scale
}
