package evidence

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/stats"
)

// randomStore fills a store with random statements over the test KB and
// returns the statements so callers can replay them elsewhere.
func randomStore(rng *stats.RNG, base *kb.KB) (*Store, []extract.Statement) {
	props := []string{"cute", "big", "warm", "very big", "dangerous", "old",
		"crowded", "beautiful", "cheap", "quiet"}
	s := NewStore()
	n := rng.IntRange(0, 400)
	stmts := make([]extract.Statement, 0, n)
	for i := 0; i < n; i++ {
		st := extract.Statement{
			Entity:   kb.EntityID(rng.Intn(base.Len())),
			Property: props[rng.Intn(len(props))],
			Polarity: extract.Positive,
		}
		if rng.Bernoulli(0.3) {
			st.Polarity = extract.Negative
		}
		s.Add(st)
		stmts = append(stmts, st)
	}
	return s, stmts
}

// TestParallelGroupMatchesTwoSnapshot is the grouping property test: on
// random stores, the single-pass parallel grouping must return exactly the
// groups and before-ρ pair count of the two-snapshot implementation
// (GroupByTypeProperty + CountGroups), for every worker count.
func TestParallelGroupMatchesTwoSnapshot(t *testing.T) {
	base := testKB()
	for seed := uint64(1); seed <= 25; seed++ {
		rng := stats.NewRNG(seed)
		s, _ := randomStore(rng, base)
		rho := int64(rng.Intn(30))
		wantGroups := GroupByTypeProperty(s, base, rho)
		wantBefore := CountGroups(s, base)
		for _, workers := range []int{1, 3, 8, 100} {
			gotGroups, gotBefore := ParallelGroup(s, base, rho, workers)
			if gotBefore != wantBefore {
				t.Fatalf("seed %d workers %d: pairsBeforeFilter = %d, want %d",
					seed, workers, gotBefore, wantBefore)
			}
			if !reflect.DeepEqual(gotGroups, wantGroups) {
				t.Fatalf("seed %d workers %d rho %d: groups diverge\ngot  %+v\nwant %+v",
					seed, workers, rho, gotGroups, wantGroups)
			}
		}
	}
}

// TestParallelGroupEmptyStore pins the degenerate case.
func TestParallelGroupEmptyStore(t *testing.T) {
	groups, before := ParallelGroup(NewStore(), testKB(), 1, 4)
	if len(groups) != 0 || before != 0 {
		t.Fatalf("empty store: groups=%d before=%d", len(groups), before)
	}
}

// TestLocalMatchesDirectAdd replays random statement streams through
// worker-local accumulators (split across several Locals, as the pipeline
// does) and asserts the merged store is identical to per-statement Adds.
func TestLocalMatchesDirectAdd(t *testing.T) {
	base := testKB()
	for seed := uint64(1); seed <= 15; seed++ {
		rng := stats.NewRNG(seed + 100)
		direct, stmts := randomStore(rng, base)

		viaLocal := NewStore()
		locals := []*Local{NewLocal(), NewLocal(), NewLocal()}
		for i, st := range stmts {
			locals[i%len(locals)].Add(st)
		}
		for _, l := range locals {
			l.FlushTo(viaLocal)
		}
		if !reflect.DeepEqual(direct.Snapshot(), viaLocal.Snapshot()) {
			t.Fatalf("seed %d: local aggregation diverges from direct Add", seed)
		}
	}
}

// TestLocalFlushClears asserts a Local is reusable after FlushTo: the
// second accumulation must not see counts from the first.
func TestLocalFlushClears(t *testing.T) {
	s := NewStore()
	l := NewLocal()
	st := extract.Statement{Entity: 0, Property: "cute", Polarity: extract.Positive}
	l.Add(st)
	l.FlushTo(s)
	if l.Len() != 0 {
		t.Fatalf("Len after flush = %d", l.Len())
	}
	l.Add(st)
	l.FlushTo(s)
	if c := s.Get(Key{Entity: 0, Property: "cute"}); c.Pos != 2 {
		t.Fatalf("two flushed adds: Pos = %d, want 2", c.Pos)
	}
}

// TestLocalInternsProperties asserts the interning contract: all keys for
// one property share one canonical string, not aliases of their sources.
func TestLocalInternsProperties(t *testing.T) {
	l := NewLocal()
	// Two distinct heap strings with equal content.
	a := fmt.Sprintf("cu%s", "te")
	b := fmt.Sprintf("c%s", "ute")
	l.Add(extract.Statement{Entity: 0, Property: a, Polarity: extract.Positive})
	l.Add(extract.Statement{Entity: 1, Property: b, Polarity: extract.Positive})
	canon, ok := l.intern["cute"]
	if !ok {
		t.Fatal("property not interned")
	}
	//lint:allow detmap order-independent assertion over every key; nothing ordered is produced
	for k := range l.m {
		if unsafe.StringData(k.Property) != unsafe.StringData(canon) {
			t.Fatalf("key property %q does not share the canonical interned backing", k.Property)
		}
	}
}

// GroupByTypeProperty is the two-snapshot reference ParallelGroup is
// tested against: group the store by (most notable type, property), keep
// groups with at least rho statements, and expand each kept group to all
// entities of the type, including zero-evidence ones.
func GroupByTypeProperty(s *Store, base *kb.KB, rho int64) []Group {
	type agg struct {
		counts map[kb.EntityID]Counts
		total  int64
	}
	groups := map[GroupKey]*agg{}
	for _, e := range s.Snapshot() {
		typ := base.Get(e.Entity).Type
		gk := GroupKey{Type: typ, Property: e.Property}
		g := groups[gk]
		if g == nil {
			g = &agg{counts: map[kb.EntityID]Counts{}}
			groups[gk] = g
		}
		g.counts[e.Entity] = e.Counts
		g.total += e.Total()
	}

	var out []Group
	for gk, g := range groups {
		if g.total < rho {
			continue
		}
		ids := base.OfType(gk.Type)
		ents := make([]EntityCounts, len(ids))
		for i, id := range ids {
			c := g.counts[id]
			ents[i] = EntityCounts{Entity: id, Pos: c.Pos, Neg: c.Neg}
		}
		out = append(out, Group{Key: gk, Entities: ents, Statements: g.total})
	}
	slices.SortFunc(out, compareGroups)
	return out
}

// CountGroups is the reference for ParallelGroup's second result: the
// number of distinct (type, property) pairs in the store regardless of ρ.
func CountGroups(s *Store, base *kb.KB) int {
	seen := map[GroupKey]bool{}
	for _, e := range s.Snapshot() {
		seen[GroupKey{Type: base.Get(e.Entity).Type, Property: e.Property}] = true
	}
	return len(seen)
}
