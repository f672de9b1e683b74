package incremental_test

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/incremental"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/testkit"
)

// An epoch publishes by merging its re-fits into a copy of the previous
// snapshot's group list. These tests pin what that buys and what a held
// snapshot may assume: it never changes, clean groups are shared and not
// copied, a newly modelled group lands wherever its key sorts, and readers
// need no lock.

// sentences builds one document per statement of the tiny world's single
// type: "big:2" is two documents saying "Kittens are big."
func sentences(spec ...string) []corpus.Document {
	var docs []corpus.Document
	for _, s := range spec {
		adj, n, _ := strings.Cut(s, ":")
		for i := 0; i < int(n[0]-'0'); i++ {
			docs = append(docs, corpus.Document{Text: "Kittens are " + adj + "."})
		}
	}
	return docs
}

func ingest(t *testing.T, m *incremental.Miner, docs []corpus.Document) incremental.EpochStats {
	t.Helper()
	st, err := m.Ingest(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func properties(res *pipeline.Result) []string {
	var out []string
	for i := range res.Groups {
		out = append(out, res.Groups[i].Key.Property)
	}
	return out
}

// frozen is a deep copy of everything a snapshot promises not to change:
// its groups and its statistics (Store is the live cumulative store).
func frozen(res *pipeline.Result) pipeline.Result {
	c := *res
	c.Store = nil
	c.Quarantined = slices.Clone(res.Quarantined)
	c.Groups = slices.Clone(res.Groups)
	for i := range c.Groups {
		c.Groups[i].Entities = slices.Clone(c.Groups[i].Entities)
		c.Groups[i].Trace.LogLikelihoods = slices.Clone(c.Groups[i].Trace.LogLikelihoods)
	}
	return c
}

// TestEpochInsertPositions: the group that crosses ρ in the second epoch
// sorts first, in the middle and last among the modelled groups; the same
// epoch re-fits a modelled group and touches one that stays below ρ. Each
// final snapshot must equal the batch run over both epochs.
func TestEpochInsertPositions(t *testing.T) {
	w := testkit.NewTinyWorld(1, 0.05)
	cfg := pipeline.Config{Rho: 2, Workers: 2}
	for _, tc := range []struct {
		name          string
		first, second []string
		before, after []string
	}{
		{"first", []string{"cute:2", "dangerous:2", "big:1"}, []string{"big:1", "cute:1", "small:1"},
			[]string{"cute", "dangerous"}, []string{"big", "cute", "dangerous"}},
		{"middle", []string{"big:2", "dangerous:2", "cute:1"}, []string{"cute:1", "dangerous:1", "small:1"},
			[]string{"big", "dangerous"}, []string{"big", "cute", "dangerous"}},
		{"last", []string{"big:2", "cute:2", "dangerous:1"}, []string{"dangerous:1", "big:1", "small:1"},
			[]string{"big", "cute"}, []string{"big", "cute", "dangerous"}},
		{"several", []string{"cute:2"}, []string{"big:2", "dangerous:2", "small:2"},
			[]string{"cute"}, []string{"big", "cute", "dangerous", "small"}},
	} {
		first, second := sentences(tc.first...), sentences(tc.second...)
		m := incremental.New(w.KB, w.Lex, cfg)
		ingest(t, m, first)
		if got := properties(m.Snapshot()); !slices.Equal(got, tc.before) {
			t.Fatalf("%s: after epoch 0 modelled %v, want %v — fixture sentences do not extract as assumed", tc.name, got, tc.before)
		}
		st := ingest(t, m, second)
		if got := properties(m.Snapshot()); !slices.Equal(got, tc.after) {
			t.Errorf("%s: after epoch 1 modelled %v, want %v", tc.name, got, tc.after)
		}
		if st.ModelledGroups != len(tc.after) {
			t.Errorf("%s: epoch reports %d modelled groups, want %d", tc.name, st.ModelledGroups, len(tc.after))
		}
		batch := pipeline.Run(append(slices.Clone(first), second...), w.KB, w.Lex, cfg)
		if diffs := testkit.DiffResults(m.Snapshot(), batch); len(diffs) > 0 {
			t.Errorf("%s: spliced snapshot diverges from batch:\n  %s", tc.name, strings.Join(diffs, "\n  "))
		}
	}
}

// TestMinerSnapshotImmutableAndShared: an epoch that re-fits one group and
// makes another cross ρ must leave the snapshot published before it deep-
// equal to a copy taken then, share the Entities of every clean group with
// it, and give every re-fitted group Entities of its own.
func TestMinerSnapshotImmutableAndShared(t *testing.T) {
	w := testkit.NewTinyWorld(1, 0.05)
	m := incremental.New(w.KB, w.Lex, pipeline.Config{Rho: 2, Workers: 2})
	ingest(t, m, sentences("big:2", "dangerous:2", "small:2", "cute:1"))
	s1 := m.Snapshot()
	held := frozen(s1)

	st := ingest(t, m, sentences("cute:1", "dangerous:1"))
	s2 := m.Snapshot()
	if st.RefitGroups != 2 || len(s2.Groups) != len(s1.Groups)+1 {
		t.Fatalf("epoch re-fitted %d groups and modelled %d → %d; want 2 re-fits, one of them new",
			st.RefitGroups, len(s1.Groups), len(s2.Groups))
	}
	if now := frozen(s1); !reflect.DeepEqual(now, held) {
		t.Errorf("the held snapshot changed under a later epoch:\n  then %+v\n  now  %+v", held, now)
	}
	refitted := map[string]bool{"cute": true, "dangerous": true}
	for i := range s2.Groups {
		g2 := &s2.Groups[i]
		g1, was := s1.Group(g2.Key.Type, g2.Key.Property)
		if !was {
			if g2.Key.Property != "cute" {
				t.Errorf("group %v appeared without crossing ρ", g2.Key)
			}
			continue
		}
		shared := &g1.Entities[0] == &g2.Entities[0]
		if shared == refitted[g2.Key.Property] {
			t.Errorf("group %v: Entities shared with the previous snapshot = %v, re-fitted = %v",
				g2.Key, shared, refitted[g2.Key.Property])
		}
	}
}

// TestMinerConcurrentLookups: readers binary-search whatever snapshot is
// current while epochs publish; run under -race. Every answer a reader gets
// must come from a consistent snapshot: an opinion found is for the entity
// asked about, in a group that holds the whole type.
func TestMinerConcurrentLookups(t *testing.T) {
	w := testkit.NewTinyWorld(1, 0.4)
	docs := w.Docs()
	m := incremental.New(w.KB, w.Lex, pipeline.Config{Rho: 5, Workers: 2})
	ids := w.KB.OfType("animal")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap, e := m.Snapshot(), ids[i%len(ids)]
				if op, ok := snap.Opinion("animal", e, "cute"); ok && op.Entity != e {
					t.Errorf("Opinion(%d) answered for entity %d", e, op.Entity)
				}
				if g, ok := snap.Group("animal", "cute"); ok && len(g.Entities) != len(ids) {
					t.Errorf("group holds %d of %d entities", len(g.Entities), len(ids))
				}
			}
		}(r)
	}
	for _, epoch := range testkit.SplitContiguous(docs, 12) {
		ingest(t, m, epoch)
	}
	close(stop)
	wg.Wait()
	if _, ok := m.Snapshot().Opinion("animal", ids[0], "cute"); !ok {
		t.Fatal("fixture never modelled animal/cute — the readers checked nothing")
	}
}

// TestEpochAssembleResultAllocates: wrapping a many-entity group list as a
// Result allocates the Result and nothing else — the guard against growing
// a world-sized lookup structure back, which every epoch would pay for.
func TestEpochAssembleResultAllocates(t *testing.T) {
	groups := make([]pipeline.GroupResult, 200)
	for i := range groups {
		groups[i].Key = evidence.GroupKey{Type: "t", Property: string(rune('a'+i/26)) + string(rune('a'+i%26))}
		groups[i].Entities = make([]pipeline.EntityOpinion, 500)
		for e := range groups[i].Entities {
			groups[i].Entities[e] = pipeline.EntityOpinion{Entity: kb.EntityID(e), Opinion: core.OpinionPositive}
		}
	}
	store := evidence.NewStore()
	var res *pipeline.Result
	allocs := testing.AllocsPerRun(20, func() {
		res = pipeline.AssembleResult(store, groups, pipeline.ResultStats{Documents: 1})
	})
	if allocs > 1 {
		t.Errorf("AssembleResult over %d groups × %d entities allocates %v times, want ≤ 1", len(groups), 500, allocs)
	}
	if op, ok := res.Opinion("t", 499, "hr"); !ok || op.Entity != 499 {
		t.Errorf("lookup in the assembled result: %+v %v", op, ok)
	}
}

// runSeries reads the seven run-level series a batch reduce records.
func runSeries(o *obs.RunObs) [7]float64 {
	pm := o.PipelineMetrics()
	return [7]float64{float64(pm.Documents.Value()), float64(pm.Sentences.Value()), float64(pm.Statements.Value()),
		float64(pm.Opinions.Value()), pm.Groups.Value(), pm.DistinctPairs.Value(), pm.PairsBefore.Value()}
}

// TestMinerRunMetricsMatchBatch: after its last epoch a miner with a live
// sink reports the same documents / sentences / statements / opinions /
// groups / pairs as one batch run over the concatenation, and a cancelled
// epoch moves none of them.
func TestMinerRunMetricsMatchBatch(t *testing.T) {
	w := testkit.NewTinyWorld(1, 0.4)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 5, Workers: 2}

	cfg.Obs = obs.New()
	pipeline.Run(docs, w.KB, w.Lex, cfg)
	want := runSeries(cfg.Obs)
	if want[0] != float64(len(docs)) || want[3] == 0 || want[4] == 0 {
		t.Fatalf("batch series look wrong: %v for %d documents", want, len(docs))
	}

	cfg.Obs = obs.New()
	m := incremental.New(w.KB, w.Lex, cfg)
	epochs := testkit.SplitContiguous(docs, 3)
	ingest(t, m, epochs[0])
	ingest(t, m, epochs[1])
	mid := runSeries(cfg.Obs)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Ingest(cancelled, epochs[2]); err == nil {
		t.Fatal("ingest under a cancelled context reported success")
	}
	if got := runSeries(cfg.Obs); got != mid {
		t.Errorf("a cancelled epoch moved the run series: %v → %v", mid, got)
	}
	ingest(t, m, epochs[2])
	if got := runSeries(cfg.Obs); got != want {
		t.Errorf("run series after 3 epochs (documents, sentences, statements, opinions, groups, pairs, pairs before ρ):\n  miner %v\n  batch %v", got, want)
	}
}
