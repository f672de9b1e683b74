package testkit

import (
	"testing"

	"repro/internal/incremental"
	"repro/internal/kb"
	"repro/internal/pipeline"
)

// Result.Group and Result.Opinion are binary searches over the sorted group
// list and each group's id-ordered entities. Reference.Opinion is a double
// linear scan over independently built groups — the oracle for both.

// TestLookupsMatchLinearScan: for every world of the differential suite,
// every (group, entity) the reference classified is found by Opinion with
// the same answer, every key round-trips through Group, and lookups next to
// every modelled key — before the first, between two, after the last
// property of a type, under another type, for a foreign or unknown entity —
// miss.
func TestLookupsMatchLinearScan(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		w := NewWorld(seed, diffScale)
		cfg := pipeline.Config{Rho: 10, Workers: 2}
		ref := ReferenceRun(w.Docs(), w.KB, w.Lex, cfg)
		res := pipeline.Run(w.Docs(), w.KB, w.Lex, cfg)
		if len(ref.Groups) < 3 {
			t.Fatalf("seed %d: reference modelled %d groups — fixture too small", seed, len(ref.Groups))
		}

		modelled := map[[2]string]bool{}
		for gi := range ref.Groups {
			k := ref.Groups[gi].Key
			modelled[[2]string{k.Type, k.Property}] = true
			for _, eo := range ref.Groups[gi].Entities {
				want, _ := ref.Opinion(eo.Entity, k.Property)
				got, ok := res.Opinion(k.Type, eo.Entity, k.Property)
				if !ok || got != want {
					t.Fatalf("seed %d: Opinion(%q, %d, %q) = %+v, %v; linear scan finds %+v",
						seed, k.Type, eo.Entity, k.Property, got, ok, want)
				}
			}
		}
		for i := range res.Groups {
			k := res.Groups[i].Key
			if g, ok := res.Group(k.Type, k.Property); !ok || g != &res.Groups[i] {
				t.Fatalf("seed %d: Group(%v) = %p, %v; want Groups[%d]", seed, k, g, ok, i)
			}
		}

		beyond := kb.EntityID(w.KB.Len())
		twoProps, foreign := false, false
		for i := range res.Groups {
			k, first := res.Groups[i].Key, res.Groups[i].Entities[0].Entity
			twoProps = twoProps || (i > 0 && res.Groups[i-1].Key.Type == k.Type)
			// Neighbours of the key in sort order: just before and just
			// after its property, and the same property under the types
			// that would sort right beside it.
			for _, near := range [][2]string{
				{k.Type, ""}, {k.Type, k.Property[:len(k.Property)-1]}, {k.Type, k.Property + "\x00"},
				{k.Type, "\U0010ffff"}, {k.Type + "\x00", k.Property}, {k.Type[:len(k.Type)-1], k.Property},
				{"", k.Property}, {"\U0010ffff", k.Property},
			} {
				if modelled[near] {
					continue
				}
				if g, ok := res.Group(near[0], near[1]); ok {
					t.Fatalf("seed %d: Group(%q, %q) resolved to %v", seed, near[0], near[1], g.Key)
				}
				if op, ok := res.Opinion(near[0], first, near[1]); ok {
					t.Fatalf("seed %d: Opinion(%q, %d, %q) resolved to %+v", seed, near[0], first, near[1], op)
				}
			}
			for _, e := range []kb.EntityID{-1, beyond, beyond + 1000} {
				if op, ok := res.Opinion(k.Type, e, k.Property); ok {
					t.Fatalf("seed %d: Opinion(%v) of entity %d, outside the KB, resolved to %+v", seed, k, e, op)
				}
			}
			// An entity of another type: under this group's type (group
			// found, entity absent) and under its own (no such group, or a
			// group it is in — then the linear scan must agree).
			for j := range res.Groups {
				other := res.Groups[j].Entities[len(res.Groups[j].Entities)/2].Entity
				if otherType := w.KB.Get(other).Type; otherType != k.Type {
					foreign = true
					if op, ok := res.Opinion(k.Type, other, k.Property); ok {
						t.Fatalf("seed %d: Opinion(%v) of the %s %d resolved to %+v", seed, k, otherType, other, op)
					}
					want, wantOK := ref.Opinion(other, k.Property)
					if got, ok := res.Opinion(otherType, other, k.Property); ok != wantOK || got != want {
						t.Fatalf("seed %d: Opinion(%q, %d, %q) = %+v, %v; linear scan %+v, %v",
							seed, otherType, other, k.Property, got, ok, want, wantOK)
					}
					break
				}
			}
		}
		if !twoProps || !foreign {
			t.Fatalf("seed %d: fixture has no type with two modelled properties (%v) or no second type (%v)",
				seed, twoProps, foreign)
		}
	}
}

// TestLookupsOnEmptyResults: the zero Result and the miner's pre-epoch
// snapshot answer every lookup with a miss.
func TestLookupsOnEmptyResults(t *testing.T) {
	w := NewTinyWorld(1, 0.05)
	kitten := w.KB.Candidates("kitten")[0]
	for i, res := range []*pipeline.Result{{}, incremental.New(w.KB, w.Lex, pipeline.Config{Rho: 1}).Snapshot()} {
		name := []string{"zero Result", "pre-epoch snapshot"}[i]
		if g, ok := res.Group("animal", "cute"); ok || g != nil {
			t.Errorf("%s: Group resolved to %v", name, g)
		}
		if op, ok := res.Opinion("animal", kitten, "cute"); ok || op != (pipeline.EntityOpinion{}) {
			t.Errorf("%s: Opinion resolved to %+v", name, op)
		}
		if n := res.Opinions(); n != 0 {
			t.Errorf("%s: counts %d opinions", name, n)
		}
	}
}
