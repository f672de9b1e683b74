package evidence

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/extract"
	"repro/internal/kb"
)

func testKB() *kb.KB {
	base := kb.New()
	base.Add(kb.Entity{Name: "kitten", Type: "animal"})            // id 0
	base.Add(kb.Entity{Name: "tiger", Type: "animal"})             // id 1
	base.Add(kb.Entity{Name: "spider", Type: "animal"})            // id 2
	base.Add(kb.Entity{Name: "Rome", Type: "city", Proper: true})  // id 3
	base.Add(kb.Entity{Name: "Paris", Type: "city", Proper: true}) // id 4
	return base
}

func TestAddAndGet(t *testing.T) {
	s := NewStore()
	s.Add(extract.Statement{Entity: 0, Property: "cute", Polarity: extract.Positive})
	s.Add(extract.Statement{Entity: 0, Property: "cute", Polarity: extract.Positive})
	s.Add(extract.Statement{Entity: 0, Property: "cute", Polarity: extract.Negative})
	c := s.Get(Key{Entity: 0, Property: "cute"})
	if c.Pos != 2 || c.Neg != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.Total() != 3 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestGetAbsentIsZero(t *testing.T) {
	s := NewStore()
	if c := s.Get(Key{Entity: 9, Property: "x"}); c.Pos != 0 || c.Neg != 0 {
		t.Fatalf("absent key counts = %+v", c)
	}
}

func TestConcurrentAdds(t *testing.T) {
	s := NewStore()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Add(extract.Statement{
					Entity:   kb.EntityID(i % 7),
					Property: "cute",
					Polarity: extract.Positive,
				})
			}
		}(g)
	}
	wg.Wait()
	if got := s.TotalStatements(); got != goroutines*perG {
		t.Fatalf("TotalStatements = %d, want %d", got, goroutines*perG)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewStore(), NewStore()
	a.AddCounts(Key{0, "cute"}, Counts{Pos: 2, Neg: 1})
	b.AddCounts(Key{0, "cute"}, Counts{Pos: 3, Neg: 0})
	b.AddCounts(Key{1, "big"}, Counts{Pos: 1, Neg: 1})
	a.Merge(b)
	if c := a.Get(Key{0, "cute"}); c.Pos != 5 || c.Neg != 1 {
		t.Fatalf("merged = %+v", c)
	}
	if c := a.Get(Key{1, "big"}); c.Pos != 1 || c.Neg != 1 {
		t.Fatalf("merged new key = %+v", c)
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
}

// TestMergeEmptyIdentity pins both identity laws of the merge monoid: an
// empty store merged INTO a populated one changes nothing, and a populated
// store merged into an empty one reproduces it exactly. The incremental
// miner leans on both — an epoch with no evidence is a published no-op.
func TestMergeEmptyIdentity(t *testing.T) {
	populate := func() *Store {
		s := NewStore()
		s.AddCounts(Key{0, "cute"}, Counts{Pos: 2, Neg: 1})
		s.AddCounts(Key{1, "big"}, Counts{Pos: 1})
		s.AddCounts(Key{3, "big"}, Counts{Neg: 4})
		return s
	}
	same := func(a, b *Store) bool {
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

	a := populate()
	a.Merge(NewStore())
	if !same(a, populate()) || a.TotalStatements() != 8 {
		t.Fatalf("right identity violated: %v (total %d)", a.Snapshot(), a.TotalStatements())
	}

	b := NewStore()
	b.Merge(populate())
	if !same(b, populate()) || b.Len() != 3 {
		t.Fatalf("left identity violated: %v", b.Snapshot())
	}
}

// Property: merging the zero delta into an arbitrary store any number of
// times is idempotent — snapshot, length, and statement total are all
// unchanged, however often the no-op repeats.
func TestMergeZeroDeltaIdempotentProperty(t *testing.T) {
	f := func(raw []uint8, repeats uint8) bool {
		s := NewStore()
		for _, v := range raw {
			s.AddCounts(Key{kb.EntityID(v % 7), []string{"cute", "big", "calm"}[int(v)%3]},
				Counts{Pos: int64(v % 4), Neg: int64(v % 3)})
		}
		want := s.Snapshot()
		wantTotal := s.TotalStatements()
		zero := NewStore()
		for i := 0; i < int(repeats%8)+1; i++ {
			s.Merge(zero)
			got := s.Snapshot()
			if len(got) != len(want) || s.TotalStatements() != wantTotal {
				return false
			}
			for j := range got {
				if got[j] != want[j] {
					return false
				}
			}
		}
		// The zero delta itself must stay zero through repeated use.
		return zero.Len() == 0 && zero.TotalStatements() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotSorted(t *testing.T) {
	s := NewStore()
	s.AddCounts(Key{3, "big"}, Counts{Pos: 1})
	s.AddCounts(Key{0, "cute"}, Counts{Pos: 1})
	s.AddCounts(Key{0, "big"}, Counts{Pos: 1})
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap[0].Key != (Key{0, "big"}) || snap[1].Key != (Key{0, "cute"}) || snap[2].Key != (Key{3, "big"}) {
		t.Fatalf("snapshot order: %v", snap)
	}
}

func TestGroupByTypePropertyIncludesZeroEvidence(t *testing.T) {
	base := testKB()
	s := NewStore()
	// 3 statements about kittens, 2 about tigers; spider unmentioned.
	s.AddCounts(Key{0, "cute"}, Counts{Pos: 3})
	s.AddCounts(Key{1, "cute"}, Counts{Pos: 1, Neg: 1})
	groups := GroupByTypeProperty(s, base, 1)
	if len(groups) != 1 {
		t.Fatalf("groups = %v", groups)
	}
	g := groups[0]
	if g.Key != (GroupKey{"animal", "cute"}) {
		t.Fatalf("group key = %+v", g.Key)
	}
	if len(g.Entities) != 3 {
		t.Fatalf("group should cover all 3 animals, got %d", len(g.Entities))
	}
	if g.Entities[2].Pos != 0 || g.Entities[2].Neg != 0 {
		t.Fatalf("spider should have zero counts: %+v", g.Entities[2])
	}
	if g.Statements != 5 {
		t.Fatalf("statements = %d", g.Statements)
	}
}

func TestGroupThresholdRho(t *testing.T) {
	base := testKB()
	s := NewStore()
	s.AddCounts(Key{0, "cute"}, Counts{Pos: 99})
	s.AddCounts(Key{3, "big"}, Counts{Pos: 100})
	groups := GroupByTypeProperty(s, base, 100)
	if len(groups) != 1 || groups[0].Key.Property != "big" {
		t.Fatalf("rho filter failed: %v", groups)
	}
}

func TestGroupsSortedAndSeparatedByType(t *testing.T) {
	base := testKB()
	s := NewStore()
	s.AddCounts(Key{0, "big"}, Counts{Pos: 5}) // animal big
	s.AddCounts(Key{3, "big"}, Counts{Pos: 5}) // city big
	groups := GroupByTypeProperty(s, base, 1)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[0].Key.Type != "animal" || groups[1].Key.Type != "city" {
		t.Fatalf("order: %v, %v", groups[0].Key, groups[1].Key)
	}
}

func TestCountGroups(t *testing.T) {
	base := testKB()
	s := NewStore()
	s.AddCounts(Key{0, "cute"}, Counts{Pos: 1})
	s.AddCounts(Key{1, "cute"}, Counts{Pos: 1})
	s.AddCounts(Key{3, "big"}, Counts{Pos: 1})
	if got := CountGroups(s, base); got != 2 {
		t.Fatalf("CountGroups = %d, want 2", got)
	}
}

// Property: merging N single-statement stores is equivalent to adding all
// statements to one store.
func TestMergeEquivalenceProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		direct := NewStore()
		merged := NewStore()
		for _, v := range raw {
			st := extract.Statement{
				Entity:   kb.EntityID(v % 5),
				Property: []string{"cute", "big"}[int(v)%2],
				Polarity: []extract.Polarity{extract.Positive, extract.Negative}[int(v/2)%2],
			}
			direct.Add(st)
			single := NewStore()
			single.Add(st)
			merged.Merge(single)
		}
		if direct.Len() != merged.Len() {
			return false
		}
		for _, e := range direct.Snapshot() {
			if merged.Get(e.Key) != e.Counts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldAntonymsStrict(t *testing.T) {
	s := NewStore()
	s.AddCounts(Key{0, "big"}, Counts{Pos: 10, Neg: 1})
	s.AddCounts(Key{0, "small"}, Counts{Pos: 4, Neg: 2})
	s.AddCounts(Key{1, "small"}, Counts{Pos: 3})
	s.AddCounts(Key{2, "cute"}, Counts{Pos: 5})
	resolve := func(p string) (string, bool) {
		if p == "small" {
			return "big", true
		}
		return "", false
	}
	out := FoldAntonyms(s, resolve, false)
	// Entity 0: big keeps (10,1) plus small's 4 positives as negatives.
	if c := out.Get(Key{0, "big"}); c.Pos != 10 || c.Neg != 5 {
		t.Fatalf("entity 0 big = %+v", c)
	}
	// Entity 1 had only antonym evidence: 3 negatives for big.
	if c := out.Get(Key{1, "big"}); c.Pos != 0 || c.Neg != 3 {
		t.Fatalf("entity 1 big = %+v", c)
	}
	// Untouched property passes through.
	if c := out.Get(Key{2, "cute"}); c.Pos != 5 {
		t.Fatalf("cute = %+v", c)
	}
	// The antonym key is gone.
	if c := out.Get(Key{0, "small"}); c.Total() != 0 {
		t.Fatalf("small should be folded away: %+v", c)
	}
}

func TestFoldAntonymsNaive(t *testing.T) {
	s := NewStore()
	s.AddCounts(Key{0, "small"}, Counts{Pos: 4, Neg: 6})
	resolve := func(p string) (string, bool) { return "big", p == "small" }
	strict := FoldAntonyms(s, resolve, false)
	if c := strict.Get(Key{0, "big"}); c.Pos != 0 || c.Neg != 4 {
		t.Fatalf("strict = %+v (negated antonyms must NOT become positives)", c)
	}
	naive := FoldAntonyms(s, resolve, true)
	if c := naive.Get(Key{0, "big"}); c.Pos != 6 || c.Neg != 4 {
		t.Fatalf("naive = %+v", c)
	}
}

func TestPrimaryByVolume(t *testing.T) {
	s := NewStore()
	s.AddCounts(Key{0, "big"}, Counts{Pos: 100})
	s.AddCounts(Key{0, "small"}, Counts{Pos: 10})
	s.AddCounts(Key{1, "warm"}, Counts{Pos: 5})
	s.AddCounts(Key{1, "cold"}, Counts{Pos: 5}) // tie: no direction
	antonyms := func(p string) []string {
		switch p {
		case "big":
			return []string{"small"}
		case "small":
			return []string{"big"}
		case "warm":
			return []string{"cold"}
		case "cold":
			return []string{"warm"}
		}
		return nil
	}
	resolve := PrimaryByVolume(s, antonyms)
	if p, ok := resolve("small"); !ok || p != "big" {
		t.Fatalf("small -> %q %v", p, ok)
	}
	if _, ok := resolve("big"); ok {
		t.Fatal("the high-volume side must not fold")
	}
	if _, ok := resolve("warm"); ok {
		t.Fatal("volume ties must not fold")
	}
	if _, ok := resolve("cute"); ok {
		t.Fatal("non-antonym property must not fold")
	}
}
