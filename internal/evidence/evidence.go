// Package evidence accumulates extracted statements into the per
// (entity, property) counters ⟨C+, C−⟩ the Surveyor model consumes, groups
// them by (type, property), and applies the occurrence threshold ρ.
//
// The Store supports concurrent writers (the parallel extraction phase)
// and shard merging (the reduce step of the pipeline); its binary form,
// for shipping a shard between processes, is internal/wire's. Grouping
// has one implementation, the GroupAccumulator (delta.go): a batch reduce
// is a fresh accumulator absorbing the whole store, an incremental epoch
// the cumulative one absorbing the epoch's delta.
package evidence

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/extract"
	"repro/internal/kb"
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

// Store is a concurrent counter map. Writers call AddCounts, directly or
// through a worker's Local; after all writers finish, readers use
// Snapshot or a GroupAccumulator.
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
	// A commutative fold into the sharded store: map order cannot reach results.
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
		// A commutative fold, as in FlushTo.
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
