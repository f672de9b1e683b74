// Package evidence accumulates extracted statements into the per
// (entity, property) counters ⟨C+, C−⟩ the Surveyor model consumes, groups
// them by (type, property), and applies the occurrence threshold ρ.
//
// The Store supports concurrent writers (the parallel extraction phase)
// and shard merging (the reduce step of the pipeline); its binary form,
// for shipping a shard between processes, is internal/wire's.
package evidence

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/obs"
)

// Key identifies one entity-property pair.
type Key struct {
	Entity   kb.EntityID
	Property string
}

// Counts is the evidence tuple ⟨C+, C−⟩ for one key.
type Counts struct {
	Pos int64
	Neg int64
}

// Total returns C+ + C−.
func (c Counts) Total() int64 { return c.Pos + c.Neg }

// Store is a concurrent counter map. Writers call Add; after all writers
// finish, readers use Snapshot/Group.
type Store struct {
	shards [storeShards]storeShard
}

const storeShards = 64

type storeShard struct {
	mu sync.Mutex
	m  map[Key]Counts
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].m = map[Key]Counts{}
	}
	return s
}

func (s *Store) shardFor(k Key) *storeShard {
	h := uint64(k.Entity) * 0x9e3779b97f4a7c15
	for i := 0; i < len(k.Property); i++ {
		h = (h ^ uint64(k.Property[i])) * 0x100000001b3
	}
	return &s.shards[h%storeShards]
}

// Add records one statement.
func (s *Store) Add(st extract.Statement) {
	k := Key{Entity: st.Entity, Property: st.Property}
	sh := s.shardFor(k)
	sh.mu.Lock()
	c := sh.m[k]
	if st.Polarity == extract.Positive {
		c.Pos++
	} else {
		c.Neg++
	}
	sh.m[k] = c
	sh.mu.Unlock()
}

// Local is a worker-private, unlocked statement accumulator. A worker adds
// its statements here and folds the result into the shared Store once with
// FlushTo, replacing a shard-mutex round trip per statement with one bulk
// merge per worker. Local is not safe for concurrent use.
type Local struct {
	m      map[Key]Counts
	intern map[string]string // property -> canonical copy
}

// NewLocal returns an empty worker-local accumulator.
func NewLocal() *Local {
	return &Local{
		m:      make(map[Key]Counts, 256),
		intern: make(map[string]string, 128),
	}
}

// Add records one statement.
func (l *Local) Add(st extract.Statement) {
	prop, ok := l.intern[st.Property]
	if !ok {
		// Clone bounds retention: a bare-adjective property string can alias
		// the full document text through the tokenizer's ToLower fast path;
		// interning also dedupes the map keys, so hashing repeated
		// properties works on one small shared string.
		prop = strings.Clone(st.Property)
		l.intern[prop] = prop
	}
	k := Key{Entity: st.Entity, Property: prop}
	c := l.m[k]
	if st.Polarity == extract.Positive {
		c.Pos++
	} else {
		c.Neg++
	}
	l.m[k] = c
}

// Len returns the number of distinct accumulated keys.
func (l *Local) Len() int { return len(l.m) }

// FlushTo folds the accumulated counts into s and clears the accumulator
// for reuse. The interning table is kept — its strings stay valid.
func (l *Local) FlushTo(s *Store) {
	//lint:allow detmap commutative fold into the sharded store; iteration order cannot reach results
	for k, c := range l.m {
		s.AddCounts(k, c)
		delete(l.m, k)
	}
}

// AddCounts merges a pre-aggregated tuple for a key.
func (s *Store) AddCounts(k Key, c Counts) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	cur := sh.m[k]
	cur.Pos += c.Pos
	cur.Neg += c.Neg
	sh.m[k] = cur
	sh.mu.Unlock()
}

// Merge folds other into s. other must not be written concurrently.
func (s *Store) Merge(other *Store) {
	for i := range other.shards {
		sh := &other.shards[i]
		sh.mu.Lock()
		//lint:allow detmap commutative fold into the sharded store; iteration order cannot reach results
		for k, c := range sh.m {
			s.AddCounts(k, c)
		}
		sh.mu.Unlock()
	}
}

// Get returns the counts for a key (zero counts if absent).
func (s *Store) Get(k Key) Counts {
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.m[k]
}

// Len returns the number of distinct keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// TotalStatements returns the number of recorded statements.
func (s *Store) TotalStatements() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		//lint:allow detmap commutative sum over counters
		for _, c := range sh.m {
			n += c.Total()
		}
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns all (key, counts) pairs sorted by entity then property,
// for deterministic iteration.
func (s *Store) Snapshot() []Entry {
	var out []Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, c := range sh.m {
			out = append(out, Entry{Key: k, Counts: c})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Entity != out[b].Entity {
			return out[a].Entity < out[b].Entity
		}
		return out[a].Property < out[b].Property
	})
	return out
}

// Entry is one snapshot row.
type Entry struct {
	Key
	Counts
}

// GroupKey identifies a (type, property) combination — the unit the model
// is trained on.
type GroupKey struct {
	Type     string
	Property string
}

// Compare orders keys by type, then property: the one definition of the
// order of every group list (kept groups, dirty sets, Result.Groups).
func (k GroupKey) Compare(o GroupKey) int {
	if c := strings.Compare(k.Type, o.Type); c != 0 {
		return c
	}
	return strings.Compare(k.Property, o.Property)
}

// EntityCounts pairs an entity with its evidence tuple. Entities with no
// extracted statements appear with zero counts — the model classifies
// those too.
type EntityCounts struct {
	Entity kb.EntityID
	Pos    int64
	Neg    int64
}

// Group is the full evidence for one (type, property) pair, covering every
// entity of the type.
type Group struct {
	Key        GroupKey
	Entities   []EntityCounts // one per KB entity of the type, in KB order
	Statements int64          // total extracted statements for this group
}

func compareGroups(a, b Group) int { return a.Key.Compare(b.Key) }

type groupAgg struct {
	counts map[kb.EntityID]Counts
	total  int64
}

// expand materialises the aggregate as the Group shape the EM phase
// consumes: every KB entity of the type in KB order, zero-evidence
// entities included.
func (g *groupAgg) expand(base *kb.KB, k GroupKey) Group {
	ids := base.OfType(k.Type)
	ents := make([]EntityCounts, len(ids))
	for i, id := range ids {
		c := g.counts[id]
		ents[i] = EntityCounts{Entity: id, Pos: c.Pos, Neg: c.Neg}
	}
	return Group{Key: k, Entities: ents, Statements: g.total}
}

// ParallelGroup groups the store by (most notable type, property), keeps
// groups with at least rho statements (the paper used ρ = 100 and kept
// 380k of 7M groups), expands each kept group to all entities of the type,
// zero-evidence ones included, and counts the distinct (type, property)
// pairs regardless of ρ — the "7 million property-type pairs before
// filtering" statistic of Section 7.1. It is one parallel pass over the
// store's shards, without materialising a sorted snapshot: workers claim
// shards, build partial (type, property) aggregates, and the partials merge
// conflict-free because each (entity, property) key lives in exactly one
// shard. Only the final kept-group list is sorted. The results are
// identical to the two-snapshot reference in grouping_test.go — the
// grouping property tests prove it.
func ParallelGroup(s *Store, base *kb.KB, rho int64, workers int) (groups []Group, pairsBeforeFilter int) {
	return ParallelGroupObserved(s, base, rho, workers, nil)
}

// ParallelGroupObserved is ParallelGroup with write-only phase counters:
// keys scanned per shard, groups kept/filtered at the ρ threshold. A nil
// o disables them; the returned groups are identical either way (the
// counters are never read here — the obsflow analyzer enforces it).
func ParallelGroupObserved(s *Store, base *kb.KB, rho int64, workers int, o *obs.GroupingObs) (groups []Group, pairsBeforeFilter int) {
	if o == nil {
		o = &obs.GroupingObs{} // nil handles: every record call no-ops
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > storeShards {
		workers = storeShards
	}
	partials := make([]map[GroupKey]*groupAgg, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := map[GroupKey]*groupAgg{}
			for {
				si := int(next.Add(1)) - 1
				if si >= storeShards {
					break
				}
				sh := &s.shards[si]
				sh.mu.Lock()
				o.PairsScanned.Add(int64(len(sh.m)))
				//lint:allow detmap per-shard aggregation is commutative; the kept groups are sorted below
				for k, c := range sh.m {
					gk := GroupKey{Type: base.Get(k.Entity).Type, Property: k.Property}
					g := part[gk]
					if g == nil {
						g = &groupAgg{counts: map[kb.EntityID]Counts{}}
						part[gk] = g
					}
					g.counts[k.Entity] = c
					g.total += c.Total()
				}
				sh.mu.Unlock()
			}
			partials[w] = part
		}(w)
	}
	wg.Wait()

	merged := map[GroupKey]*groupAgg{}
	for _, part := range partials {
		//lint:allow detmap partial merge is commutative; the kept groups are sorted below
		for gk, g := range part {
			m := merged[gk]
			if m == nil {
				merged[gk] = g
				continue
			}
			// Disjoint at the entity level: one (entity, property) key maps
			// to one shard, claimed by one worker.
			//lint:allow detmap disjoint entity keys; assignment order immaterial
			for e, c := range g.counts {
				m.counts[e] = c
			}
			m.total += g.total
		}
	}
	pairsBeforeFilter = len(merged)

	for gk, g := range merged {
		if g.total >= rho {
			groups = append(groups, g.expand(base, gk))
		}
	}
	slices.SortFunc(groups, compareGroups)
	o.GroupsKept.Add(int64(len(groups)))
	o.GroupsFiltered.Add(int64(pairsBeforeFilter - len(groups)))
	return groups, pairsBeforeFilter
}
