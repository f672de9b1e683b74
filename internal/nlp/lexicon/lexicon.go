// Package lexicon provides the word knowledge used by the Surveyor NLP
// substrate: part-of-speech entries, copula and negation word classes, an
// adjective inventory, and a WordNet-lite antonym table.
//
// The paper's pipeline consumed a web snapshot annotated by a Stanford-style
// parser backed by large lexical resources; this package is the from-scratch
// substitute sized to the grammar our corpus generator emits plus common
// free-text variation.
package lexicon

import "strings"

// Tag is a coarse part-of-speech tag.
type Tag int

// Coarse part-of-speech inventory. Proper nouns get Propn so the entity
// tagger can prefer capitalised spans; everything the parser does not care
// about collapses into Other.
const (
	Other Tag = iota
	Noun
	Propn
	Verb
	Adj
	Adv
	Det
	Prep
	Pron
	Conj
	Neg
	Num
	Punct
	Aux
	Mark // subordinating complementizer: that, because, while...
)

var tagNames = [...]string{
	Other: "OTHER", Noun: "NOUN", Propn: "PROPN", Verb: "VERB", Adj: "ADJ",
	Adv: "ADV", Det: "DET", Prep: "PREP", Pron: "PRON", Conj: "CONJ",
	Neg: "NEG", Num: "NUM", Punct: "PUNCT", Aux: "AUX", Mark: "MARK",
}

// String returns the conventional upper-case tag name.
func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return "OTHER"
}

// Word is the lexicon's record of one word form: what the POS tagger, the
// entity tagger and the knowledge base's alias tables ask about a token,
// resolved by the one hash of its lower-cased text in Lexicon.Word and
// carried with the token from there on. The zero Word is the record of a
// form the lexicon does not know.
type Word struct {
	// ID is dense — 1, 2, 3, ... in the order the forms were first added,
	// which is call order and never map order, so lexicons built by the
	// same calls agree on every id — and indexes tables built per lexicon
	// (kb.AliasTable). 0 is the unknown word.
	ID      int32
	mask    uint16 // bit t is set when the form can take Tag t
	primary uint8  // the preferred tag: the first of Lookup's list
	class   uint8  // closed word classes, a bit each
}

// The closed word classes a record carries.
const (
	classCopula uint8 = 1 << iota
	classToBe
	classNegation
)

// Known reports whether the lexicon has the form at all.
func (w Word) Known() bool { return w.ID != 0 }

// HasTag reports whether the form can take the given tag.
func (w Word) HasTag(tag Tag) bool { return w.mask&(1<<tag) != 0 }

// Primary returns the form's preferred tag, Other if it is unknown.
func (w Word) Primary() Tag { return Tag(w.primary) }

// IsCopula reports whether the form is in the broad copula class.
func (w Word) IsCopula() bool { return w.in(classCopula) }

// IsNegation reports whether the form is a negation token.
func (w Word) IsNegation() bool { return w.in(classNegation) }

func (w Word) in(class uint8) bool { return w.class&class != 0 }

// form is the part of a word's record too big to travel with each token,
// kept in one slab indexed by Word.ID.
type form struct {
	tags []Tag // possible tags, most preferred first
}

// Lexicon maps word forms to their possible parts of speech (in preference
// order) and exposes the closed word classes the parser and extractor need.
//
// A lexicon has two lives. It is built by one goroutine: Default, then the
// Add* calls (the knowledge base's RegisterLexicon among them). From the
// first pos.New or tagger.New on it is only read, by any number of
// goroutines. Every mutation is an add or a mark, which store a record with
// one map assignment after its slab entry is complete, so a reader on the
// right side of that line cannot see one half-built. Ids are never
// reassigned; tables indexed by them remember Len() and are rebuilt when
// the lexicon has grown since (kb.AliasTable).
type Lexicon struct {
	words map[string]Word // lower-cased form -> record
	forms []form          // indexed by Word.ID; forms[0] is the unknown word

	antonyms map[string][]string
}

// Word returns the record of an already lower-cased form — the one lexicon
// probe a token needs; the zero Word if the form is unknown.
func (l *Lexicon) Word(lower string) Word { return l.words[lower] }

// fold is Word for a form in any case: the probe behind the string API.
func (l *Lexicon) fold(word string) Word { return l.words[strings.ToLower(word)] }

// Len returns the number of word ids in use, the unknown word's 0 included:
// the length of a table indexed by Word.ID.
func (l *Lexicon) Len() int { return len(l.forms) }

// add gives the form one more possible tag — preferred over those it has
// when front is set — creating its record (and id) on first sight.
func (l *Lexicon) add(key string, tag Tag, front bool) {
	w, ok := l.words[key]
	if !ok {
		w.ID = int32(len(l.forms))
		l.forms = append(l.forms, form{})
	}
	f := &l.forms[w.ID]
	if front {
		f.tags = append([]Tag{tag}, f.tags...)
	} else {
		f.tags = append(f.tags, tag)
	}
	w.mask |= 1 << tag
	w.primary = uint8(f.tags[0])
	l.words[key] = w
}

// mark puts a form the lexicon already has into closed word classes.
func (l *Lexicon) mark(key string, class uint8) {
	w := l.words[key]
	w.class |= class
	l.words[key] = w
}

// HasTag reports whether word can take the given tag.
func (l *Lexicon) HasTag(word string, tag Tag) bool {
	return l.fold(word).HasTag(tag)
}

// IsCopula reports whether word is in the broad copula class (be, seem,
// look, appear, become, remain, stay, feel, sound) used by extraction
// pattern versions 1-2.
func (l *Lexicon) IsCopula(word string) bool {
	return l.fold(word).IsCopula()
}

// IsToBe reports whether word is a form of "to be" — the restricted verb
// set of extraction pattern versions 3-4 (Appendix B).
func (l *Lexicon) IsToBe(word string) bool {
	return l.fold(word).in(classToBe)
}

// IsNegation reports whether word is a negation token (not, n't, never,
// no, hardly, ...).
func (l *Lexicon) IsNegation(word string) bool {
	return l.fold(word).IsNegation()
}

// Antonyms returns the registered antonyms of an adjective. Per Section 4
// of the paper, polarity detection deliberately does NOT use antonyms; the
// table exists to document the decision and to support the corpus
// generator's distractor sentences.
func (l *Lexicon) Antonyms(adj string) []string {
	return l.antonyms[strings.ToLower(adj)]
}

// AddNoun registers additional noun forms (the knowledge base feeds its
// entity names and type nouns in through this).
func (l *Lexicon) AddNoun(word string, proper bool) {
	key := strings.ToLower(word)
	tag := Noun
	if proper {
		tag = Propn
	}
	if !l.Word(key).HasTag(tag) {
		l.add(key, tag, true)
	}
}

// AddAdjective registers an extra adjective, wiring antonym pairs
// symmetrically.
func (l *Lexicon) AddAdjective(word string, antonyms ...string) {
	key := strings.ToLower(word)
	if !l.Word(key).HasTag(Adj) {
		l.add(key, Adj, false)
	}
	for _, a := range antonyms {
		a = strings.ToLower(a)
		l.antonyms[key] = appendUnique(l.antonyms[key], a)
		l.antonyms[a] = appendUnique(l.antonyms[a], key)
	}
}

func appendUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}
