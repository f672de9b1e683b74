// Grouping: a GroupAccumulator keeps the cumulative per-(type, property)
// aggregates across evidence deltas and tracks which groups a delta
// touched. It is the only grouper. A batch reduce is one fresh accumulator
// absorbing the whole store; the incremental miner keeps one across epochs,
// so its re-grouping and re-fitting cost is proportional to the delta, not
// the corpus.
//
// Correctness rests on the Merge algebra: counters only ever add, so the
// accumulator's per-group state after absorbing deltas d1..dk equals the
// state one absorb of the merged store builds — the grouping property
// test and the incremental differential suite in testkit prove it, the
// latter end to end and bit for bit.
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
	epoch  int // absorbs so far; stamps the groups the current one touched
}

type groupAgg struct {
	counts map[kb.EntityID]Counts
	total  int64
	epoch  int // the last absorb that touched the group
}

// NewGroupAccumulator returns an empty accumulator resolving entity types
// against base.
func NewGroupAccumulator(base *kb.KB) *GroupAccumulator {
	return &GroupAccumulator{base: base, groups: map[GroupKey]*groupAgg{}}
}

// ParallelGroup groups the whole store by (most notable type, property),
// keeps groups with at least rho statements and counts the distinct
// (type, property) pairs regardless of ρ: the first absorb of a fresh
// GroupAccumulator. workers is ignored.
func ParallelGroup(s *Store, base *kb.KB, rho int64, workers int) (groups []Group, pairsBeforeFilter int) {
	acc := NewGroupAccumulator(base)
	return acc.Kept(acc.AbsorbDelta(s), rho), acc.Pairs()
}

// AbsorbDelta folds an evidence delta into the cumulative aggregates and
// returns the dirty set: every (type, property) group whose counters
// changed, sorted by type then property. The fold reads the delta's shard
// maps in place, each under its lock: the sums are commutative, so the
// aggregates — and, once sorted, the dirty set — do not depend on map
// order. delta must not be written concurrently.
func (a *GroupAccumulator) AbsorbDelta(delta *Store) []GroupKey {
	a.epoch++
	var dirty []GroupKey
	for i := range delta.shards {
		sh := &delta.shards[i]
		sh.mu.Lock()
		for k, c := range sh.m {
			gk := GroupKey{Type: a.base.Get(k.Entity).Type, Property: k.Property}
			g := a.groups[gk]
			if g == nil {
				g = &groupAgg{counts: map[kb.EntityID]Counts{}}
				a.groups[gk] = g
			}
			if g.epoch != a.epoch {
				g.epoch = a.epoch
				dirty = append(dirty, gk)
			}
			cur := g.counts[k.Entity]
			cur.Pos += c.Pos
			cur.Neg += c.Neg
			g.counts[k.Entity] = cur
			g.total += c.Total()
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(dirty, GroupKey.Compare)
	return dirty
}

// Pairs returns the number of distinct (type, property) pairs seen so far
// — the before-ρ statistic a batch run reports as PairsBeforeFilter.
func (a *GroupAccumulator) Pairs() int { return len(a.groups) }

// Kept expands, in the order given, each of keys whose cumulative
// statement count is at least rho (the paper used ρ = 100 and kept 380k
// of 7M groups) to the full Group shape the EM phase consumes: every KB
// entity of the type in KB order, zero-evidence entities included. Keys
// the accumulator has never seen are skipped.
func (a *GroupAccumulator) Kept(keys []GroupKey, rho int64) []Group {
	var groups []Group
	for _, k := range keys {
		g := a.groups[k]
		if g == nil || g.total < rho {
			continue
		}
		ids := a.base.OfType(k.Type)
		ents := make([]EntityCounts, len(ids))
		for i, id := range ids {
			c := g.counts[id]
			ents[i] = EntityCounts{Entity: id, Pos: c.Pos, Neg: c.Neg}
		}
		groups = append(groups, Group{Key: k, Entities: ents, Statements: g.total})
	}
	return groups
}
