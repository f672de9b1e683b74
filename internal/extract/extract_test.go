package extract

import (
	"testing"

	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/tagger"
)

// rig bundles the full front-end: KB, lexicon, POS tagger, parser,
// entity tagger.
type rig struct {
	kb  *kb.KB
	lex *lexicon.Lexicon
	pt  *pos.Tagger
	dp  *depparse.Parser
	et  *tagger.Tagger
}

func newRig() *rig {
	base := kb.New()
	base.Add(kb.Entity{Name: "snake", Type: "animal"})
	base.Add(kb.Entity{Name: "kitten", Type: "animal"})
	base.Add(kb.Entity{Name: "soccer", Type: "sport"})
	base.Add(kb.Entity{Name: "Chicago", Type: "city", Proper: true})
	base.Add(kb.Entity{Name: "New York", Type: "city", Proper: true})
	base.Add(kb.Entity{Name: "San Francisco", Type: "city", Proper: true})
	base.Add(kb.Entity{Name: "Palo Alto", Type: "city", Proper: true})
	base.Add(kb.Entity{Name: "France", Type: "country", Proper: true})
	base.Add(kb.Entity{Name: "Greece", Type: "country", Proper: true})
	base.Add(kb.Entity{Name: "tiger", Type: "animal"})
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	return &rig{
		kb:  base,
		lex: lex,
		pt:  pos.New(lex),
		dp:  depparse.New(lex),
		et:  tagger.New(base, lex),
	}
}

func (r *rig) entity(t *testing.T, name string) kb.EntityID {
	t.Helper()
	cands := r.kb.Candidates(name)
	if len(cands) != 1 {
		t.Fatalf("entity %q: candidates %v", name, cands)
	}
	return cands[0]
}

// splitSentences splits text on fresh buffers.
func splitSentences(text string) []token.Sentence {
	s, _ := token.SplitSentencesInto(nil, nil, text)
	return s
}

func (r *rig) extract(t *testing.T, text string, v Version) []Statement {
	t.Helper()
	sents := splitSentences(text)
	if len(sents) != 1 {
		t.Fatalf("want one sentence for %q", text)
	}
	tagged := r.pt.TagInto(nil, sents[0])
	tree := r.dp.ParseInto(new(depparse.Scratch), tagged)
	mentions := r.et.TagInto(nil, new(tagger.Scratch), tagged)
	return NewVersion(r.lex, v).ExtractInto(nil, tree, mentions)
}

func one(t *testing.T, stmts []Statement) Statement {
	t.Helper()
	if len(stmts) != 1 {
		t.Fatalf("want exactly one statement, got %v", stmts)
	}
	return stmts[0]
}

func TestTable1AdjectivalModifier(t *testing.T) {
	// "Snakes are dangerous animals" -> (snake, dangerous, +) via amod.
	r := newRig()
	s := one(t, r.extract(t, "Snakes are dangerous animals.", V4))
	if s.Entity != r.entity(t, "snake") || s.Property != "dangerous" ||
		s.Polarity != Positive || s.Pattern != AdjectivalModifier {
		t.Fatalf("got %+v", s)
	}
}

func TestTable1AdjectivalComplement(t *testing.T) {
	// "Chicago is very big" -> (Chicago, very big, +) via acomp.
	r := newRig()
	s := one(t, r.extract(t, "Chicago is very big.", V4))
	if s.Entity != r.entity(t, "chicago") || s.Property != "very big" ||
		s.Polarity != Positive || s.Pattern != AdjectivalComplement {
		t.Fatalf("got %+v", s)
	}
}

func TestTable1Conjunction(t *testing.T) {
	// "Soccer is a fast and exciting sport" -> fast (amod) + exciting (conj).
	r := newRig()
	stmts := r.extract(t, "Soccer is a fast and exciting sport.", V4)
	if len(stmts) != 2 {
		t.Fatalf("want 2 statements, got %v", stmts)
	}
	byProp := map[string]Statement{}
	for _, s := range stmts {
		byProp[s.Property] = s
	}
	if s := byProp["fast"]; s.Pattern != AdjectivalModifier || s.Polarity != Positive {
		t.Fatalf("fast: %+v", s)
	}
	if s := byProp["exciting"]; s.Pattern != Conjunction || s.Polarity != Positive {
		t.Fatalf("exciting: %+v", s)
	}
}

func TestSimpleNegation(t *testing.T) {
	r := newRig()
	s := one(t, r.extract(t, "Palo Alto is not big.", V4))
	if s.Polarity != Negative || s.Property != "big" {
		t.Fatalf("got %+v", s)
	}
}

func TestNegatedPredicateNominal(t *testing.T) {
	r := newRig()
	s := one(t, r.extract(t, "San Francisco is not a big city.", V4))
	if s.Entity != r.entity(t, "san francisco") || s.Polarity != Negative ||
		s.Property != "big" || s.Pattern != AdjectivalModifier {
		t.Fatalf("got %+v", s)
	}
}

func TestFigure5DoubleNegation(t *testing.T) {
	// "I don't think that snakes are never dangerous" -> positive.
	r := newRig()
	s := one(t, r.extract(t, "I don't think that snakes are never dangerous.", V4))
	if s.Polarity != Positive || s.Property != "dangerous" ||
		s.Entity != r.entity(t, "snake") {
		t.Fatalf("got %+v", s)
	}
}

func TestSingleEmbeddedNegation(t *testing.T) {
	// "I don't think that Chicago is big" -> negative.
	r := newRig()
	s := one(t, r.extract(t, "I don't think that Chicago is big.", V4))
	if s.Polarity != Negative {
		t.Fatalf("got %+v", s)
	}
}

func TestEmbeddedPositive(t *testing.T) {
	r := newRig()
	s := one(t, r.extract(t, "I think that Chicago is big.", V4))
	if s.Polarity != Positive {
		t.Fatalf("got %+v", s)
	}
}

func TestNonIntrinsicFilteredUnderChecks(t *testing.T) {
	// "New York is bad for parking" — PP constriction (Section 4).
	r := newRig()
	if stmts := r.extract(t, "New York is bad for parking.", V4); len(stmts) != 0 {
		t.Fatalf("non-intrinsic statement extracted under checks: %v", stmts)
	}
	// Without checks (V2) the statement comes through.
	if stmts := r.extract(t, "New York is bad for parking.", V2); len(stmts) != 1 {
		t.Fatalf("V2 should extract it: %v", stmts)
	}
}

func TestNonCoreferentialAmodFiltered(t *testing.T) {
	// "Southern France is warm": the subject is restricted by an
	// adjectival modifier — the sentence claims something about a part of
	// the entity, so the checks drop the whole pattern (the paper calls
	// its filter "rather conservative at times").
	r := newRig()
	if stmts := r.extract(t, "Southern France is warm.", V4); len(stmts) != 0 {
		t.Fatalf("got %v", stmts)
	}
	// An unrestricted subject still extracts.
	if stmts := r.extract(t, "France is warm.", V4); len(stmts) != 1 {
		t.Fatalf("unrestricted subject: %v", stmts)
	}
	// V2 extracts both (no coreference filter).
	stmts := r.extract(t, "Southern France is warm.", V2)
	props := map[string]bool{}
	for _, s := range stmts {
		props[s.Property] = true
	}
	if !props["southern"] || !props["warm"] {
		t.Fatalf("V2 got %v", stmts)
	}
}

func TestCoreferentialAmodKept(t *testing.T) {
	// "Greece is a southern country": predicate nominal — kept even under
	// checks, and it is about Greece.
	r := newRig()
	s := one(t, r.extract(t, "Greece is a southern country.", V4))
	if s.Entity != r.entity(t, "greece") || s.Property != "southern" {
		t.Fatalf("got %+v", s)
	}
}

func TestBroadCopulaOnlyWithoutToBeRestriction(t *testing.T) {
	r := newRig()
	// "seems" is in the broad copula class: V2 extracts, V4 does not.
	if stmts := r.extract(t, "Tigers seem dangerous.", V2); len(stmts) != 1 {
		t.Fatalf("V2 with seems: %v", stmts)
	}
	if stmts := r.extract(t, "Tigers seem dangerous.", V4); len(stmts) != 0 {
		t.Fatalf("V4 must not extract broad copulas: %v", stmts)
	}
}

func TestV3IsAcompOnly(t *testing.T) {
	r := newRig()
	// Predicate nominal amod is not extracted by V3.
	if stmts := r.extract(t, "Snakes are dangerous animals.", V3); len(stmts) != 0 {
		t.Fatalf("V3 extracted amod: %v", stmts)
	}
	if stmts := r.extract(t, "Snakes are dangerous.", V3); len(stmts) != 1 {
		t.Fatalf("V3 should extract acomp: %v", stmts)
	}
}

func TestV1IsAmodOnly(t *testing.T) {
	r := newRig()
	if stmts := r.extract(t, "Chicago is big.", V1); len(stmts) != 0 {
		t.Fatalf("V1 extracted acomp: %v", stmts)
	}
	if stmts := r.extract(t, "Chicago is a big city.", V1); len(stmts) != 1 {
		t.Fatalf("V1 should extract amod: %v", stmts)
	}
}

func TestDirectAmodOnEntityOnlyWithoutChecks(t *testing.T) {
	// "the cute kitten" inside a non-copular sentence.
	r := newRig()
	stmts := r.extract(t, "We saw the cute kitten.", V2)
	if len(stmts) != 1 || stmts[0].Entity != r.entity(t, "kitten") ||
		stmts[0].Property != "cute" {
		t.Fatalf("V2 direct amod: %v", stmts)
	}
	if stmts := r.extract(t, "We saw the cute kitten.", V4); len(stmts) != 0 {
		t.Fatalf("V4 must filter direct amod: %v", stmts)
	}
}

func TestNoEntityNoStatement(t *testing.T) {
	r := newRig()
	if stmts := r.extract(t, "The weather is cold.", V4); len(stmts) != 0 {
		t.Fatalf("statement without entity: %v", stmts)
	}
}

func TestNonDegreeAdverbNotInProperty(t *testing.T) {
	r := newRig()
	s := one(t, r.extract(t, "Chicago is still big.", V4))
	if s.Property != "big" {
		t.Fatalf("property = %q, want bare adjective", s.Property)
	}
}

func TestNeverCountsAsNegation(t *testing.T) {
	r := newRig()
	s := one(t, r.extract(t, "Kittens are never dangerous.", V4))
	if s.Polarity != Negative {
		t.Fatalf("got %+v", s)
	}
}

func TestIsntContraction(t *testing.T) {
	r := newRig()
	s := one(t, r.extract(t, "Chicago isn't cheap.", V4))
	if s.Polarity != Negative || s.Property != "cheap" {
		t.Fatalf("got %+v", s)
	}
}

func TestPredicateAdjectiveConjunction(t *testing.T) {
	r := newRig()
	stmts := r.extract(t, "Soccer is fast and exciting.", V4)
	if len(stmts) != 2 {
		t.Fatalf("got %v", stmts)
	}
}

func TestVersionConfigMatrix(t *testing.T) {
	cases := []struct {
		v    Version
		want Config
	}{
		{V1, Config{UseAmod: true}},
		{V2, Config{UseAmod: true, UseAcomp: true}},
		{V3, Config{UseAcomp: true, ToBeOnly: true, Checks: true}},
		{V4, Config{UseAmod: true, UseAcomp: true, ToBeOnly: true, Checks: true}},
	}
	for _, c := range cases {
		if got := VersionConfig(c.v); got != c.want {
			t.Errorf("VersionConfig(%d) = %+v, want %+v", c.v, got, c.want)
		}
	}
}

func TestPatternString(t *testing.T) {
	if AdjectivalModifier.String() != "amod" ||
		AdjectivalComplement.String() != "acomp" ||
		Conjunction.String() != "conj" {
		t.Fatal("Pattern.String mismatch")
	}
	if Pattern(9).String() != "unknown" {
		t.Fatal("out-of-range Pattern.String")
	}
}

func TestEmptyInputs(t *testing.T) {
	r := newRig()
	x := NewVersion(r.lex, V4)
	if got := x.ExtractInto(nil, &depparse.Tree{}, nil); got != nil {
		t.Fatalf("Extract on empty tree = %v", got)
	}
}

func TestDegreeAdverbChain(t *testing.T) {
	r := newRig()
	s := one(t, r.extract(t, "Chicago is really very big.", V4))
	if s.Property != "really very big" {
		t.Fatalf("property = %q, want chained adverbs", s.Property)
	}
}

func TestDenselyPopulated(t *testing.T) {
	// The paper's own multi-word property example.
	r := newRig()
	s := one(t, r.extract(t, "Chicago is densely populated.", V4))
	if s.Property != "densely populated" {
		t.Fatalf("property = %q", s.Property)
	}
}

func TestMentionCoverPreference(t *testing.T) {
	// When the subject is a multi-token mention, the statement must be
	// attributed to that entity via the head token.
	r := newRig()
	s := one(t, r.extract(t, "New York is hectic.", V4))
	if r.kb.Get(s.Entity).Name != "New York" {
		t.Fatalf("entity = %q", r.kb.Get(s.Entity).Name)
	}
}

func TestTwoEntitiesTwoStatements(t *testing.T) {
	r := newRig()
	stmts := r.extract(t, "Chicago is big.", V4)
	stmts = append(stmts, r.extract(t, "Palo Alto is not big.", V4)...)
	if len(stmts) != 2 {
		t.Fatalf("statements = %v", stmts)
	}
	if stmts[0].Entity == stmts[1].Entity {
		t.Fatal("entities should differ")
	}
	if stmts[0].Polarity == stmts[1].Polarity {
		t.Fatal("polarities should differ")
	}
}

func TestDedupWithinSentence(t *testing.T) {
	// The same (entity, property, polarity) must not double-count from one
	// sentence even if reachable via multiple patterns.
	r := newRig()
	stmts := r.extract(t, "Soccer is a fast and fast sport.", V4)
	count := 0
	for _, s := range stmts {
		if s.Property == "fast" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("duplicate statements: %v", stmts)
	}
}

func TestNegatedConjunct(t *testing.T) {
	// "not fast and exciting": the negation attaches to the first
	// conjunct's head; both conjuncts sit under it on the path so both
	// come out negative — conservative but consistent.
	r := newRig()
	stmts := r.extract(t, "Soccer is not fast.", V4)
	if len(stmts) != 1 || stmts[0].Polarity != Negative {
		t.Fatalf("got %v", stmts)
	}
}

func TestAppositiveCoreference(t *testing.T) {
	// "San Francisco, a beautiful city, is expensive." — the appositive
	// renames the entity, so both the amod inside it and the main
	// predicate are statements about San Francisco.
	r := newRig()
	stmts := r.extract(t, "San Francisco, a beautiful city, is expensive.", V4)
	byProp := map[string]Statement{}
	for _, s := range stmts {
		byProp[s.Property] = s
	}
	sf := r.entity(t, "san francisco")
	if s, ok := byProp["beautiful"]; !ok || s.Entity != sf || s.Polarity != Positive {
		t.Fatalf("appositive amod: %v", stmts)
	}
	if s, ok := byProp["expensive"]; !ok || s.Entity != sf {
		t.Fatalf("main predicate: %v", stmts)
	}
}

func TestAppositiveRequiresDeterminer(t *testing.T) {
	// "In my opinion, Chicago is big." must NOT treat Chicago as an
	// appositive of "opinion" — the statement stays about Chicago.
	r := newRig()
	s := one(t, r.extract(t, "In my opinion, Chicago is big.", V4))
	if s.Entity != r.entity(t, "chicago") || s.Property != "big" {
		t.Fatalf("got %+v", s)
	}
}
