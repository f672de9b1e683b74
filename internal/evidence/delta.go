// Delta accumulation for the incremental miner: a GroupAccumulator keeps
// the cumulative per-(type, property) aggregates across epochs and tracks
// which groups an evidence delta touched, so re-grouping and re-fitting
// cost is proportional to the delta, not the corpus.
//
// Correctness rests on the Merge algebra: counters only ever add, so the
// accumulator's per-group state after absorbing deltas d1..dk equals the
// state a batch ParallelGroup would build from the merged store —
// the incremental differential suite in testkit proves the end-to-end
// consequence bit for bit.
package evidence

import (
	"slices"

	"repro/internal/kb"
)

// GroupAccumulator maintains cumulative (type, property) aggregates over a
// sequence of evidence deltas. It is not safe for concurrent use; the
// incremental miner serialises epochs.
type GroupAccumulator struct {
	base   *kb.KB
	groups map[GroupKey]*groupAgg
}

// NewGroupAccumulator returns an empty accumulator resolving entity types
// against base.
func NewGroupAccumulator(base *kb.KB) *GroupAccumulator {
	return &GroupAccumulator{base: base, groups: map[GroupKey]*groupAgg{}}
}

// AbsorbDelta folds one epoch's evidence delta into the cumulative
// aggregates and returns the dirty set: every (type, property) group whose
// counters changed, sorted by type then property. The delta is read
// through its sorted snapshot, so the fold — and therefore the returned
// order — is deterministic regardless of how the delta was built.
func (a *GroupAccumulator) AbsorbDelta(delta *Store) []GroupKey {
	dirty := map[GroupKey]bool{}
	for _, e := range delta.Snapshot() {
		gk := GroupKey{Type: a.base.Get(e.Entity).Type, Property: e.Property}
		g := a.groups[gk]
		if g == nil {
			g = &groupAgg{counts: map[kb.EntityID]Counts{}}
			a.groups[gk] = g
		}
		c := g.counts[e.Entity]
		c.Pos += e.Pos
		c.Neg += e.Neg
		g.counts[e.Entity] = c
		g.total += e.Total()
		dirty[gk] = true
	}
	keys := make([]GroupKey, 0, len(dirty))
	for gk := range dirty {
		keys = append(keys, gk)
	}
	slices.SortFunc(keys, GroupKey.Compare)
	return keys
}

// Pairs returns the number of distinct (type, property) pairs seen so far
// — the before-ρ statistic a batch run reports as PairsBeforeFilter.
func (a *GroupAccumulator) Pairs() int { return len(a.groups) }

// Materialize expands one group to the full Group shape the EM phase
// consumes — every KB entity of the type in KB order, zero-evidence
// entities included — when its cumulative statement count is at least
// rho. The result is identical to the entry ParallelGroup would
// produce for the same key over the merged store.
func (a *GroupAccumulator) Materialize(k GroupKey, rho int64) (Group, bool) {
	g := a.groups[k]
	if g == nil || g.total < rho {
		return Group{}, false
	}
	return g.expand(a.base, k), true
}
