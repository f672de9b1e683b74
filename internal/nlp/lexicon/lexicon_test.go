package lexicon

import "testing"

func TestDefaultClosedClasses(t *testing.T) {
	l := Default()
	cases := []struct {
		word string
		tag  Tag
	}{
		{"the", Det}, {"for", Prep}, {"and", Conj}, {"i", Pron},
		{"not", Neg}, {"is", Verb}, {"very", Adv}, {"cute", Adj},
		{"because", Mark}, {"do", Aux},
	}
	for _, c := range cases {
		if !l.HasTag(c.word, c.tag) {
			t.Errorf("%q should have tag %v", c.word, c.tag)
		}
	}
}

func TestCaseInsensitiveLookup(t *testing.T) {
	l := Default()
	if !l.HasTag("Cute", Adj) {
		t.Error("lookup should be case-insensitive")
	}
	if !l.IsCopula("IS") {
		t.Error("IsCopula should be case-insensitive")
	}
}

func TestCopulaClasses(t *testing.T) {
	l := Default()
	for _, w := range []string{"is", "are", "was", "were", "be"} {
		if !l.IsCopula(w) || !l.IsToBe(w) {
			t.Errorf("%q should be copula and to-be", w)
		}
	}
	for _, w := range []string{"seems", "looks", "became", "felt"} {
		if !l.IsCopula(w) {
			t.Errorf("%q should be in the broad copula class", w)
		}
		if l.IsToBe(w) {
			t.Errorf("%q must not be a to-be form", w)
		}
	}
	if l.IsCopula("runs") {
		t.Error("runs is not a copula")
	}
}

func TestCopulaLemma(t *testing.T) {
	l := Default()
	if lemma, ok := l.CopulaLemma("are"); !ok || lemma != "be" {
		t.Errorf("CopulaLemma(are) = %q, %v", lemma, ok)
	}
	if lemma, ok := l.CopulaLemma("seemed"); !ok || lemma != "seem" {
		t.Errorf("CopulaLemma(seemed) = %q, %v", lemma, ok)
	}
}

func TestNegations(t *testing.T) {
	l := Default()
	for _, w := range []string{"not", "n't", "never", "no", "hardly"} {
		if !l.IsNegation(w) {
			t.Errorf("%q should be a negation", w)
		}
	}
	if l.IsNegation("yes") {
		t.Error("yes is not a negation")
	}
}

func TestSubjectiveInventoryCoversTable2(t *testing.T) {
	l := Default()
	table2 := []string{
		"dangerous", "cute", "big", "friendly", "deadly",
		"cool", "crazy", "pretty", "quiet", "young",
		"calm", "cheap", "hectic", "multicultural",
		"exciting", "rare", "solid", "vital",
		"addictive", "boring", "fast", "popular",
	}
	for _, p := range table2 {
		if !l.IsSubjectiveAdjective(p) {
			t.Errorf("Table 2 property %q missing from subjective inventory", p)
		}
	}
}

func TestObjectiveAdjectivesNotSubjective(t *testing.T) {
	l := Default()
	for _, w := range []string{"american", "southern", "swiss"} {
		if !l.HasTag(w, Adj) {
			t.Errorf("%q should be an adjective", w)
		}
		if l.IsSubjectiveAdjective(w) {
			t.Errorf("%q should not be subjective", w)
		}
	}
}

func TestAntonymsSymmetric(t *testing.T) {
	l := Default()
	pairs := [][2]string{{"big", "small"}, {"safe", "dangerous"}, {"cheap", "expensive"}}
	for _, p := range pairs {
		if !contains(l.Antonyms(p[0]), p[1]) {
			t.Errorf("Antonyms(%q) missing %q", p[0], p[1])
		}
		if !contains(l.Antonyms(p[1]), p[0]) {
			t.Errorf("Antonyms(%q) missing %q", p[1], p[0])
		}
	}
}

func TestTypeNouns(t *testing.T) {
	l := Default()
	for _, w := range []string{"city", "cities", "animal", "sport"} {
		if !l.IsTypeNoun(w) {
			t.Errorf("%q should be a type noun", w)
		}
	}
	if l.IsTypeNoun("parking") {
		t.Error("parking is not a type noun")
	}
}

func TestOpinionVerbs(t *testing.T) {
	l := Default()
	for _, w := range []string{"think", "believe", "consider", "find"} {
		if !l.IsOpinionVerb(w) {
			t.Errorf("%q should be an opinion verb", w)
		}
	}
	if l.IsOpinionVerb("visit") {
		t.Error("visit is not an opinion verb")
	}
}

func TestAddNoun(t *testing.T) {
	l := Default()
	l.AddNoun("Zurich", true)
	if !l.HasTag("zurich", Propn) {
		t.Error("AddNoun proper should register Propn")
	}
	// Idempotent.
	l.AddNoun("Zurich", true)
	tags, _ := l.Lookup("zurich")
	count := 0
	for _, tg := range tags {
		if tg == Propn {
			count++
		}
	}
	if count != 1 {
		t.Errorf("duplicate Propn tags after repeated AddNoun: %v", tags)
	}
}

func TestAddAdjectiveWiresAntonyms(t *testing.T) {
	l := Default()
	l.AddAdjective("spiffy", true, "shabby")
	if !l.IsSubjectiveAdjective("spiffy") {
		t.Error("spiffy should be subjective")
	}
	if !contains(l.Antonyms("shabby"), "spiffy") {
		t.Error("antonym wiring should be symmetric")
	}
}

func TestPrimaryTagUnknown(t *testing.T) {
	l := Default()
	if got := l.PrimaryTag("xyzzyqwerty"); got != Other {
		t.Errorf("unknown word tag = %v, want Other", got)
	}
}

func TestTagString(t *testing.T) {
	if Adj.String() != "ADJ" || Noun.String() != "NOUN" {
		t.Error("Tag.String mismatch")
	}
	if Tag(99).String() != "OTHER" {
		t.Error("out-of-range tag should stringify as OTHER")
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestWordRecordAgreesWithLookup walks every form of the built-in lexicon,
// plus forms the Add* calls touched, and checks the compact record against
// the tag list it summarises: one mask bit per listed tag and no other, the
// first tag as primary, the class bits behind the string predicates.
func TestWordRecordAgreesWithLookup(t *testing.T) {
	l := Default()
	l.AddNoun("Visit", true)       // known form, new preferred tag
	l.AddNoun("zurich", true)      // new form
	l.AddTypeNoun("gadget")        // new form with a class
	l.AddTypeNoun("star")          // known noun joins a class
	l.AddAdjective("spiffy", true) // new form
	l.AddAdjective("play", false)  // known form, new last tag
	if got := l.Word("visit").Primary(); got != Propn {
		t.Errorf("AddNoun must make the new tag primary, got %v", got)
	}
	if got := l.Word("play").Primary(); got != Verb || !l.Word("play").HasTag(Adj) {
		t.Errorf("AddAdjective must keep the primary tag and add Adj, got %v", got)
	}
	if !l.IsTypeNoun("gadget") || !l.IsTypeNoun("star") {
		t.Error("AddTypeNoun must set the class on new and known forms alike")
	}
	seen := make([]bool, l.Len())
	//lint:allow detmap every form is checked on its own; no ordered output is produced
	for form, w := range l.words {
		if w.ID <= 0 || int(w.ID) >= l.Len() || seen[w.ID] {
			t.Fatalf("%q: id %d out of range or given twice", form, w.ID)
		}
		seen[w.ID] = true
		tags, ok := l.Lookup(form)
		if !ok || len(tags) == 0 || w.Primary() != tags[0] {
			t.Fatalf("%q: tags %v, primary %v", form, tags, w.Primary())
		}
		var mask uint16
		for _, tag := range tags {
			mask |= 1 << tag
		}
		if w.mask != mask {
			t.Errorf("%q: mask %b, tags %v", form, w.mask, tags)
		}
		if w.IsCopula() != l.IsCopula(form) || w.IsNegation() != l.IsNegation(form) {
			t.Errorf("%q: class bits disagree with the string predicates", form)
		}
		if _, isCopula := l.CopulaLemma(form); isCopula != w.IsCopula() {
			t.Errorf("%q: CopulaLemma disagrees with the copula bit", form)
		}
	}
	if unknown := l.Word("xyzzyqwerty"); unknown != (Word{}) || unknown.Known() || unknown.Primary() != Other {
		t.Errorf("unknown word record = %+v", unknown)
	}
}

// TestWordIDsFollowCallOrder pins the id contract: dense from 1 in the
// order forms were first added, the same in every lexicon built by the same
// calls, and stable once given.
func TestWordIDsFollowCallOrder(t *testing.T) {
	a, b := Default(), Default()
	if a.Len() != b.Len() || a.Len() != len(a.words)+1 {
		t.Fatalf("Len %d vs %d, %d forms", a.Len(), b.Len(), len(a.words))
	}
	//lint:allow detmap every form is checked on its own; no ordered output is produced
	for form, w := range a.words {
		if b.words[form] != w {
			t.Fatalf("%q: %+v in one lexicon, %+v in the other", form, w, b.words[form])
		}
	}
	if a.Word("a").ID != 1 || a.Word("an").ID != 2 {
		t.Errorf("first forms added got ids %d, %d", a.Word("a").ID, a.Word("an").ID)
	}
	the, n := a.Word("the").ID, a.Len()
	a.AddNoun("zurich", true)
	a.AddNoun("the", false)
	if a.Word("zurich").ID != int32(n) || a.Word("the").ID != the || a.Len() != n+1 {
		t.Errorf("new form id %d (want %d), known form id %d (want %d)", a.Word("zurich").ID, n, a.Word("the").ID, the)
	}
}
