// Package kb implements the knowledge base the Surveyor pipeline runs
// against: typed entities with aliases and objective attributes. The paper
// used an extension of Freebase; this package provides the same interface —
// entities grouped by their most notable type — backed by deterministic
// synthetic instances for the paper's evaluation domains.
package kb

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/nlp/lexicon"
)

// EntityID identifies an entity within a KB. IDs are dense, assigned in
// insertion order.
type EntityID int32

// Entity is one knowledge-base entry.
type Entity struct {
	ID EntityID
	// Proper reports whether the name is a proper noun (capitalised in
	// text) as opposed to a common noun like "kitten" or "soccer".
	Proper bool
	// Ambiguous marks names that collide with unrelated senses; the entity
	// tagger requires stronger context to link them (Section 2 discarded
	// 11 of 23 high-traffic city names for ambiguity).
	Ambiguous bool
	Name      string // canonical surface form, e.g. "San Francisco"
	Type      string // most notable type, e.g. "city"
	Aliases   []string
	// attrs is the attribute table of the KB the entity was added to.
	attrs *attrTable
}

// attrTable holds a KB's objective numeric attributes (population,
// area_km2, gdp_per_capita, height_m, prominence), used as correlation
// proxies in the paper's empirical analyses, as one column per name
// indexed by EntityID. NaN, or an id past the column's end, is absent.
type attrTable struct{ cols map[string][]float64 }

// Attr returns a named attribute, or def when absent.
func (e *Entity) Attr(name string, def float64) float64 {
	if e.attrs != nil {
		if col := e.attrs.cols[name]; int(e.ID) < len(col) && !math.IsNaN(col[e.ID]) {
			return col[e.ID]
		}
	}
	return def
}

// Attrs returns the entity's attributes as a fresh map.
func (e *Entity) Attrs() map[string]float64 {
	out := map[string]float64{}
	if e.attrs == nil {
		return out
	}
	for name := range e.attrs.cols {
		if v := e.Attr(name, math.NaN()); !math.IsNaN(v) {
			out[name] = v
		}
	}
	return out
}

// KB is an in-memory knowledge base. It is immutable after building —
// Add, SetAttr and RegisterLexicon — and safe for concurrent reads.
type KB struct {
	entities  []Entity
	attrs     attrTable
	byType    map[string][]EntityID
	byAlias   map[string][]EntityID // lower-cased alias -> candidate IDs
	firstSpan map[string]int        // first alias word -> max token count of aliases starting with it
	// maxSpan is the largest value in firstSpan and indexed counts the
	// index calls, the version an AliasTable was built at.
	maxSpan, indexed int
	// registered is the alias table of the lexicon last passed to
	// RegisterLexicon.
	registered *AliasTable
}

// AliasTable is what a KB knows about words, keyed by the word ids of one
// lexicon, so that the entity tagger's per-token questions — can an alias
// start here, which entities does this word alone name, is this a type's
// noun — are a slice index or an integer compare on the record the token
// already carries and not a string hash.
type AliasTable struct {
	lex     *lexicon.Lexicon
	indexed int // the KB's version when built
	// span[id] is the largest token count of the aliases whose first word
	// has that id. span[0] bounds the aliases whose first word the lexicon
	// does not know; once the KB is registered there are none.
	span []int32
	// single[id] lists the entities that word names on its own.
	single    [][]EntityID
	typeNouns map[string]TypeNoun // by entity type
}

// TypeNoun is an entity type's noun, singular and plural: the lexicon's
// word ids, and the lower-cased text for the form the lexicon does not
// know (id 0, KB never registered) — which can only equal a token the
// lexicon does not know either.
type TypeNoun struct {
	Singular, Plural           int32
	SingularLower, PluralLower string
}

// Span returns the largest token count of any alias that starts with the
// word, 0 if none does. For the unknown word it is an upper bound over
// every alias the lexicon cannot see the start of, so probing up to it
// finds what the exact count would.
func (t *AliasTable) Span(w lexicon.Word) int { return int(t.span[w.ID]) }

// Single returns the entities with a one-token alias equal to the known
// word w. The returned slice must not be modified.
func (t *AliasTable) Single(w lexicon.Word) []EntityID { return t.single[w.ID] }

// TypeNoun returns the noun of an entity type of the KB.
func (t *AliasTable) TypeNoun(typ string) TypeNoun { return t.typeNouns[typ] }

// New returns an empty knowledge base.
func New() *KB {
	return &KB{
		attrs:     attrTable{cols: map[string][]float64{}},
		byType:    map[string][]EntityID{},
		byAlias:   map[string][]EntityID{},
		firstSpan: map[string]int{},
	}
}

// Add inserts an entity, assigning and returning its ID. The canonical name
// is indexed along with all aliases; for common-noun entities a regular
// plural alias is derived automatically ("kitten" -> "kittens").
func (kb *KB) Add(e Entity) EntityID {
	id := EntityID(len(kb.entities))
	e.ID, e.attrs = id, &kb.attrs
	if !e.Proper {
		if pl := Pluralize(e.Name); pl != e.Name && !containsFold(e.Aliases, pl) {
			e.Aliases = append(e.Aliases, pl)
		}
	}
	kb.entities = append(kb.entities, e)
	kb.byType[e.Type] = append(kb.byType[e.Type], id)
	kb.index(e.Name, id)
	for _, a := range e.Aliases {
		kb.index(a, id)
	}
	return id
}

// SetAttr sets an objective attribute of an entity; NaN is absent. Like
// Add, it is a build step and not safe beside readers. Like Get, it panics
// on an ID the KB does not have.
func (kb *KB) SetAttr(id EntityID, name string, v float64) {
	_ = kb.entities[id]
	col := kb.attrs.cols[name]
	for len(col) <= int(id) {
		col = append(col, math.NaN())
	}
	col[id] = v
	kb.attrs.cols[name] = col
}

func (kb *KB) index(alias string, id EntityID) {
	key := strings.ToLower(strings.TrimSpace(alias))
	if key == "" {
		return
	}
	first, n := key, 1
	if sp := strings.IndexByte(key, ' '); sp >= 0 {
		first = key[:sp]
		n = strings.Count(key, " ") + 1
	}
	if n > kb.firstSpan[first] {
		kb.firstSpan[first] = n
		kb.maxSpan = max(kb.maxSpan, n)
	}
	kb.indexed++
	for _, existing := range kb.byAlias[key] {
		if existing == id {
			return
		}
	}
	kb.byAlias[key] = append(kb.byAlias[key], id)
}

func containsFold(xs []string, x string) bool {
	for _, v := range xs {
		if strings.EqualFold(v, x) {
			return true
		}
	}
	return false
}

// Get returns the entity with the given ID. It panics on out-of-range IDs
// (which indicate a programming error, not bad input).
func (kb *KB) Get(id EntityID) *Entity {
	return &kb.entities[id]
}

// Len returns the number of entities.
func (kb *KB) Len() int { return len(kb.entities) }

// OfType returns the IDs of all entities with the given most notable type,
// in insertion order.
func (kb *KB) OfType(typ string) []EntityID { return kb.byType[typ] }

// Types returns all entity types in sorted order.
func (kb *KB) Types() []string {
	out := make([]string, 0, len(kb.byType))
	for t := range kb.byType {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Candidates returns the entity IDs whose name or alias matches the given
// surface form (case-insensitive). The returned slice must not be modified.
func (kb *KB) Candidates(surface string) []EntityID {
	return kb.byAlias[strings.ToLower(surface)]
}

// CandidatesLowerBytes is Candidates for a surface form the caller has
// already lower-cased into a byte buffer; the map index conversion does not
// allocate, so callers can probe with a reusable scratch buffer.
func (kb *KB) CandidatesLowerBytes(lower []byte) []EntityID {
	return kb.byAlias[string(lower)]
}

// AliasTable returns the alias index keyed by lex's word ids: the one
// RegisterLexicon built if it is for this lexicon and neither the lexicon
// nor the KB has grown since, a fresh one otherwise — which costs a pass
// over the entity types and the distinct first words of all aliases, so
// register before building taggers in a loop.
func (kb *KB) AliasTable(lex *lexicon.Lexicon) *AliasTable {
	if t := kb.registered; t != nil && t.lex == lex && len(t.span) == lex.Len() && t.indexed == kb.indexed {
		return t
	}
	t := &AliasTable{lex: lex, indexed: kb.indexed, span: make([]int32, lex.Len()),
		single: make([][]EntityID, lex.Len()), typeNouns: make(map[string]TypeNoun, len(kb.byType))}
	for _, typ := range kb.Types() {
		s, p := strings.ToLower(typ), strings.ToLower(Pluralize(typ))
		t.typeNouns[typ] = TypeNoun{lex.Word(s).ID, lex.Word(p).ID, s, p}
	}
	// Map order is fine: a max per id, and one slice per distinct id.
	for first, n := range kb.firstSpan {
		w := lex.Word(first)
		t.span[w.ID] = max(t.span[w.ID], int32(n))
		if w.Known() {
			t.single[w.ID] = kb.byAlias[first]
		}
	}
	return t
}

// RegisterLexicon adds every entity name and alias to the lexicon so the
// POS tagger recognises them as nouns, registers every type name as a type
// noun (for the coreference heuristic), and builds the alias table for the
// lexicon's word ids — here, once, so that building a tagger does not walk
// the aliases. It is the last step of building the KB (call it again after
// adding entities, or words to the lexicon) and not safe beside readers.
func (kb *KB) RegisterLexicon(lex *lexicon.Lexicon) {
	for i := range kb.entities {
		e := &kb.entities[i]
		addNouns := func(form string) {
			for _, w := range strings.Fields(form) {
				lex.AddNoun(w, e.Proper)
			}
		}
		addNouns(e.Name)
		for _, a := range e.Aliases {
			addNouns(a)
		}
	}
	// Sorted, not in map order: new words take their ids in call order.
	for _, t := range kb.Types() {
		lex.AddNoun(t, false)
		lex.AddNoun(Pluralize(t), false)
	}
	kb.registered = kb.AliasTable(lex)
}

// Pluralize derives a regular English plural: city->cities, fox->foxes,
// dog->dogs. Multi-word names pluralise the last word.
func Pluralize(name string) string {
	fields := strings.Fields(name)
	if len(fields) == 0 {
		return name
	}
	last := fields[len(fields)-1]
	lower := strings.ToLower(last)
	var pl string
	switch {
	case strings.HasSuffix(lower, "s") || strings.HasSuffix(lower, "x") ||
		strings.HasSuffix(lower, "z") || strings.HasSuffix(lower, "ch") ||
		strings.HasSuffix(lower, "sh"):
		pl = last + "es"
	case strings.HasSuffix(lower, "y") && len(lower) > 1 && !isVowel(lower[len(lower)-2]):
		pl = last[:len(last)-1] + "ies"
	default:
		pl = last + "s"
	}
	fields[len(fields)-1] = pl
	return strings.Join(fields, " ")
}

func isVowel(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// record is an entity as Save writes it, one JSON object per line.
type record struct {
	ID         EntityID           `json:"id"`
	Name       string             `json:"name"`
	Type       string             `json:"type"`
	Aliases    []string           `json:"aliases,omitempty"`
	Proper     bool               `json:"proper"`
	Attributes map[string]float64 `json:"attributes,omitempty"`
	Ambiguous  bool               `json:"ambiguous,omitempty"`
}

// Save writes the KB as JSON (one entity per line) to w.
func (kb *KB) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range kb.entities {
		e := &kb.entities[i]
		if err := enc.Encode(record{e.ID, e.Name, e.Type, e.Aliases, e.Proper, e.Attrs(), e.Ambiguous}); err != nil {
			return fmt.Errorf("kb: save entity %d: %w", i, err)
		}
	}
	return nil
}
