package kb

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/nlp/lexicon"
)

func TestAddAndGet(t *testing.T) {
	k := New()
	id := k.Add(Entity{Name: "Palo Alto", Type: "city", Proper: true,
		Attributes: map[string]float64{"population": 64000}})
	e := k.Get(id)
	if e.Name != "Palo Alto" || e.Type != "city" || e.ID != id {
		t.Fatalf("Get returned %+v", e)
	}
	if e.Attr("population", 0) != 64000 {
		t.Fatalf("Attr = %v", e.Attr("population", 0))
	}
	if e.Attr("missing", 7) != 7 {
		t.Fatal("Attr default not applied")
	}
}

func TestCandidatesCaseInsensitive(t *testing.T) {
	k := New()
	id := k.Add(Entity{Name: "San Francisco", Type: "city", Proper: true})
	for _, q := range []string{"san francisco", "SAN FRANCISCO", "San Francisco"} {
		cands := k.Candidates(q)
		if len(cands) != 1 || cands[0] != id {
			t.Fatalf("Candidates(%q) = %v", q, cands)
		}
	}
}

func TestAliasesIndexed(t *testing.T) {
	k := New()
	id := k.Add(Entity{Name: "Los Angeles", Type: "city", Proper: true,
		Aliases: []string{"LA", "City of Angels"}})
	if got := k.Candidates("la"); len(got) != 1 || got[0] != id {
		t.Fatalf("alias lookup failed: %v", got)
	}
}

func TestAutoPluralAliasForCommonNouns(t *testing.T) {
	k := New()
	id := k.Add(Entity{Name: "kitten", Type: "animal"})
	if got := k.Candidates("kittens"); len(got) != 1 || got[0] != id {
		t.Fatalf("plural alias missing: %v", got)
	}
	// Proper nouns do not get plural aliases.
	k.Add(Entity{Name: "Paris", Type: "city", Proper: true})
	if got := k.Candidates("parises"); len(got) != 0 {
		t.Fatalf("proper noun got plural alias: %v", got)
	}
}

func TestPluralize(t *testing.T) {
	cases := map[string]string{
		"city":         "cities",
		"dog":          "dogs",
		"fox":          "foxes",
		"bush":         "bushes",
		"church":       "churches",
		"day":          "days",
		"grizzly bear": "grizzly bears",
		"profession":   "professions",
	}
	//lint:allow detmap a table of independent assertions; no ordered output is produced
	for in, want := range cases {
		if got := Pluralize(in); got != want {
			t.Errorf("Pluralize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestOfTypeAndTypes(t *testing.T) {
	k := New()
	k.Add(Entity{Name: "kitten", Type: "animal"})
	k.Add(Entity{Name: "tiger", Type: "animal"})
	k.Add(Entity{Name: "Rome", Type: "city", Proper: true})
	if got := len(k.OfType("animal")); got != 2 {
		t.Fatalf("OfType(animal) = %d entries", got)
	}
	types := k.Types()
	if len(types) != 2 || types[0] != "animal" || types[1] != "city" {
		t.Fatalf("Types() = %v", types)
	}
}

func TestMaxAliasTokens(t *testing.T) {
	k := New()
	k.Add(Entity{Name: "Rome", Type: "city", Proper: true})
	if k.maxSpan != 1 {
		t.Fatal("single-word KB should have window 1")
	}
	k.Add(Entity{Name: "Rancho Santa Margarita", Type: "city", Proper: true})
	if k.maxSpan != 3 {
		t.Fatalf("window = %d, want 3", k.maxSpan)
	}
}

func TestRegisterLexicon(t *testing.T) {
	k := New()
	k.Add(Entity{Name: "Zondervale", Type: "city", Proper: true})
	k.Add(Entity{Name: "wombat", Type: "animal"})
	lex := lexicon.Default()
	k.RegisterLexicon(lex)
	if !lex.HasTag("zondervale", lexicon.Propn) {
		t.Error("city name not registered as proper noun")
	}
	if !lex.HasTag("wombat", lexicon.Noun) {
		t.Error("animal name not registered as noun")
	}
	if !lex.IsTypeNoun("city") || !lex.IsTypeNoun("animals") {
		t.Error("type nouns not registered (singular + plural)")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	k := New()
	k.Add(Entity{Name: "Palo Alto", Type: "city", Proper: true,
		Attributes: map[string]float64{"population": 64000}})
	k.Add(Entity{Name: "kitten", Type: "animal",
		Attributes: map[string]float64{"cuteness": 1}})

	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d entities", loaded.Len())
	}
	e := loaded.Get(0)
	if e.Name != "Palo Alto" || e.Attr("population", 0) != 64000 {
		t.Fatalf("round trip lost data: %+v", e)
	}
	if got := loaded.Candidates("kittens"); len(got) != 1 {
		t.Fatalf("plural alias lost in round trip: %v", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Fatal("Load should fail on malformed input")
	}
}

func TestDefaultKB(t *testing.T) {
	k := Default(1)
	if got := len(k.OfType("city")); got != 461 {
		t.Errorf("cities = %d, want 461", got)
	}
	if got := len(k.OfType("animal")); got < 70 {
		t.Errorf("animals = %d, want >= 70", got)
	}
	for _, typ := range []string{"celebrity", "profession", "sport", "country", "lake", "mountain"} {
		if len(k.OfType(typ)) == 0 {
			t.Errorf("type %q empty", typ)
		}
	}
	// Figure 10 animals present with their AMT votes.
	cands := k.Candidates("kitten")
	if len(cands) != 1 {
		t.Fatalf("kitten candidates = %v", cands)
	}
	if votes := k.Get(cands[0]).Attr("cute_votes", -1); votes != 20 {
		t.Errorf("kitten cute_votes = %v, want 20", votes)
	}
	// Populations span orders of magnitude.
	var minPop, maxPop = 1e18, 0.0
	for _, id := range k.OfType("city") {
		p := k.Get(id).Attr("population", 0)
		if p < minPop {
			minPop = p
		}
		if p > maxPop {
			maxPop = p
		}
	}
	if maxPop/minPop < 1000 {
		t.Errorf("population spread too narrow: %v .. %v", minPop, maxPop)
	}
}

func TestDefaultDeterministic(t *testing.T) {
	a, b := Default(7), Default(7)
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Get(EntityID(i)).Name != b.Get(EntityID(i)).Name {
			t.Fatalf("entity %d differs: %q vs %q", i,
				a.Get(EntityID(i)).Name, b.Get(EntityID(i)).Name)
		}
	}
}

func TestRandomDomains(t *testing.T) {
	b := NewBuilder(3)
	types := b.RandomDomains(10, 7)
	if len(types) != 10 {
		t.Fatalf("types = %d", len(types))
	}
	k := b.KB()
	for _, typ := range types {
		if got := len(k.OfType(typ)); got != 7 {
			t.Fatalf("type %q has %d entities, want 7", typ, got)
		}
	}
	// Prominence decays within each type.
	ids := k.OfType(types[0])
	first := k.Get(ids[0]).Attr("prominence", 0)
	last := k.Get(ids[len(ids)-1]).Attr("prominence", 0)
	if first <= last {
		t.Errorf("prominence should decay: first %v, last %v", first, last)
	}
}

func TestAmbiguousCitiesExist(t *testing.T) {
	k := Default(1)
	n := 0
	for _, id := range k.OfType("city") {
		if k.Get(id).Ambiguous {
			n++
		}
	}
	if n == 0 {
		t.Error("expected some ambiguous city names (Section 2 discard simulation)")
	}
}

func TestAssignProminence(t *testing.T) {
	b := NewBuilder(3)
	b.SwissLakes(30)
	b.AssignProminence("lake", "area_km2")
	base := b.KB()
	// Every lake gets a prominence in (0, 1].
	var biggest, smallest *Entity
	for _, id := range base.OfType("lake") {
		e := base.Get(id)
		p := e.Attr("prominence", -1)
		if p <= 0 || p > 1 {
			t.Fatalf("prominence out of range for %s: %v", e.Name, p)
		}
		if biggest == nil || e.Attr("area_km2", 0) > biggest.Attr("area_km2", 0) {
			biggest = e
		}
		if smallest == nil || e.Attr("area_km2", 0) < smallest.Attr("area_km2", 0) {
			smallest = e
		}
	}
	// With mild jitter the extremes should still be ordered.
	if biggest.Attr("prominence", 0) <= smallest.Attr("prominence", 0) {
		t.Errorf("biggest lake (%s, prom %.3f) should be more prominent than smallest (%s, prom %.3f)",
			biggest.Name, biggest.Attr("prominence", 0),
			smallest.Name, smallest.Attr("prominence", 0))
	}
}

func TestBuildersDomainsNonEmptyAndTyped(t *testing.T) {
	b := NewBuilder(5)
	b.Countries()
	b.SwissLakes(20)
	b.BritishMountains(20)
	b.Professions()
	b.Sports()
	base := b.KB()
	cases := map[string]string{
		"country": "gdp_per_capita", "lake": "area_km2",
		"mountain": "height_m", "profession": "risk", "sport": "speed",
	}
	//lint:allow detmap a table of independent assertions; no ordered output is produced
	for typ, attr := range cases {
		ids := base.OfType(typ)
		if len(ids) < 10 {
			t.Errorf("type %s has only %d entities", typ, len(ids))
		}
		for _, id := range ids {
			if base.Get(id).Attr(attr, -1) < 0 {
				t.Errorf("%s %q missing attribute %s", typ, base.Get(id).Name, attr)
			}
		}
	}
}

func TestFigure10AnimalsAllPresent(t *testing.T) {
	base := Default(2)
	want := []string{"pony", "spider", "koala", "rat", "scorpion", "crow",
		"kitten", "monkey", "octopus", "beaver", "goose", "tiger", "moose",
		"frog", "grizzly bear", "alligator", "puppy", "camel", "white shark", "lion"}
	for _, name := range want {
		cands := base.Candidates(name)
		if len(cands) != 1 {
			t.Errorf("figure-10 animal %q: candidates %v", name, cands)
			continue
		}
		if base.Get(cands[0]).Attr("cute_votes", -1) < 0 {
			t.Errorf("%q missing cute_votes", name)
		}
	}
}

func TestEntityAttrNilMap(t *testing.T) {
	e := Entity{Name: "x"}
	if e.Attr("anything", 3.5) != 3.5 {
		t.Fatal("Attr on nil map should return default")
	}
}

// TestMaxAliasTokensSurvivesLoad checks the maintained maximum against
// aliases that only Load's own index pass sees (persisted aliases are
// re-indexed after Add).
func TestMaxAliasTokensSurvivesLoad(t *testing.T) {
	k := New()
	k.Add(Entity{Name: "LA", Type: "city", Proper: true, Aliases: []string{"City of Los Angeles"}})
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if k.maxSpan != 4 || loaded.maxSpan != 4 {
		t.Fatalf("maxSpan = %d built, %d loaded, want 4", k.maxSpan, loaded.maxSpan)
	}
}

// TestAliasTable checks the id-keyed alias index against the string-keyed
// one it is derived from, and its life cycle: built by RegisterLexicon,
// reused while nothing changes, rebuilt — never stale — once the lexicon or
// the KB has grown, and for a lexicon the KB was never registered with.
func TestAliasTable(t *testing.T) {
	k := New()
	k.Add(Entity{Name: "San Francisco", Type: "city", Proper: true})
	k.Add(Entity{Name: "San Luis Obispo", Type: "city", Proper: true})
	kitten := k.Add(Entity{Name: "kitten", Type: "animal"})
	lex := lexicon.Default()

	bare := k.AliasTable(lex) // "san" and "kitten" are not in the lexicon
	if got := bare.Span(lex.Word("san")); got != 3 {
		t.Fatalf("unregistered: Span(unknown word) = %d, want the bound 3", got)
	}
	if got := bare.Span(lex.Word("the")); got != 0 {
		t.Fatalf("unregistered: Span(the) = %d, want 0", got)
	}

	k.RegisterLexicon(lex)
	table := k.AliasTable(lex)
	if table == bare || table != k.AliasTable(lex) {
		t.Fatal("RegisterLexicon must build the table once and AliasTable return that one")
	}
	for _, c := range []struct {
		word string
		want int
	}{{"san", 3}, {"kitten", 1}, {"kittens", 1}, {"francisco", 0}, {"the", 0}, {"zzz", 0}} {
		if got := table.Span(lex.Word(c.word)); got != c.want {
			t.Errorf("Span(%s) = %d, want %d", c.word, got, c.want)
		}
	}
	if got := table.Single(lex.Word("kittens")); len(got) != 1 || got[0] != kitten {
		t.Errorf("Single(kittens) = %v, want [%d]", got, kitten)
	}
	if got := table.Single(lex.Word("san")); len(got) != 0 {
		t.Errorf("Single(san) = %v, want none", got)
	}
	if got, want := table.TypeNoun("city"), (TypeNoun{lex.Word("city").ID, lex.Word("cities").ID, "city", "cities"}); got != want || got.Plural == 0 {
		t.Errorf("TypeNoun(city) = %+v, want %+v", got, want)
	}
	if got := table.TypeNoun("gadget"); got != (TypeNoun{}) {
		t.Errorf("TypeNoun of a type the KB does not have = %+v", got)
	}

	lex.AddAdjective("spiffy", true) // a new word id the table has no slot for
	grown := k.AliasTable(lex)
	if grown == table || grown.Span(lex.Word("spiffy")) != 0 || grown.Span(lex.Word("san")) != 3 {
		t.Fatal("a lexicon grown after registration must get a rebuilt table")
	}
	k.RegisterLexicon(lex)
	k.Add(Entity{Name: "the Presidio", Type: "park"})
	if got := k.AliasTable(lex).Span(lex.Word("the")); got != 2 {
		t.Fatalf("a KB grown after registration must get a rebuilt table: Span(the) = %d, want 2", got)
	}
	if got := k.AliasTable(lexicon.Default()).Span(lexicon.Word{}); got != 3 {
		t.Fatalf("another lexicon must get its own table: Span(unknown) = %d, want 3", got)
	}
}

// TestRegisterLexiconAssignsIDsInCallOrder registers the same KB with two
// fresh lexicons: every word must get the same id in both — ids follow the
// order of the Add calls, never a map's.
func TestRegisterLexiconAssignsIDsInCallOrder(t *testing.T) {
	k := Default(1)
	a, b := lexicon.Default(), lexicon.Default()
	k.RegisterLexicon(a)
	k.RegisterLexicon(b)
	if a.Len() != b.Len() {
		t.Fatalf("lexicons differ in size: %d vs %d", a.Len(), b.Len())
	}
	for i := range k.entities {
		for _, w := range strings.Fields(strings.ToLower(k.entities[i].Name)) {
			if a.Word(w) != b.Word(w) || !a.Word(w).Known() {
				t.Fatalf("%q: record %+v vs %+v", w, a.Word(w), b.Word(w))
			}
		}
	}
	for _, typ := range k.Types() {
		if w := strings.ToLower(Pluralize(typ)); a.Word(w) != b.Word(w) || !a.Word(w).Known() {
			t.Fatalf("%q: record %+v vs %+v", w, a.Word(w), b.Word(w))
		}
	}
}

// TestOfTypeAscending pins "KB order is ascending entity id" for every
// type, after Add (types interleaved) and after Save → Load: the pipeline
// emits each group's entities in OfType order and binary-searches them by
// id (pipeline.Result.Opinion).
func TestOfTypeAscending(t *testing.T) {
	k := Default(3)
	for i, typ := range []string{"zebra", "city", "alpha", "city", "zebra", "animal"} {
		k.Add(Entity{Name: fmt.Sprintf("interleaved%d", i), Type: typ})
	}
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, base := range []*KB{k, loaded} {
		name, total := []string{"built", "loaded"}[i], 0
		for _, typ := range base.Types() {
			ids := base.OfType(typ)
			total += len(ids)
			for i, id := range ids {
				if i > 0 && ids[i-1] >= id {
					t.Fatalf("%s KB: OfType(%q)[%d] = %d after %d", name, typ, i, id, ids[i-1])
				}
				if base.Get(id).Type != typ || base.Get(id).ID != id {
					t.Fatalf("%s KB: OfType(%q) lists entity %d = %+v", name, typ, id, base.Get(id))
				}
			}
		}
		if total != base.Len() {
			t.Fatalf("%s KB: types cover %d of %d entities", name, total, base.Len())
		}
	}
}
