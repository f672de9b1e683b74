package query

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/pipeline"
)

func engine(t *testing.T) (*Engine, *kb.KB) {
	t.Helper()
	base := kb.New()
	animals := []struct {
		name string
		cute float64
	}{
		{"kitten", 0.98}, {"puppy", 0.97}, {"koala", 0.95}, {"panda", 0.9},
		{"otter", 0.88}, {"spider", 0.04}, {"scorpion", 0.03}, {"wasp", 0.05},
		{"rat", 0.2}, {"hyena", 0.15},
	}
	for _, a := range animals {
		base.SetAttr(base.Add(kb.Entity{Name: a.name, Type: "animal"}), "cuteness", a.cute)
	}
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	specs := []corpus.Spec{{
		Type: "animal", Property: "cute", PA: 0.92, NpPlus: 35, NpMinus: 4,
		PosFraction: corpus.SigmoidFraction("cuteness", 0.5, 0.1, 0.95),
	}}
	snap := corpus.NewGenerator(base, specs, corpus.Config{Seed: 8}).Generate()
	res := pipeline.Run(snap.Documents, base, lex, pipeline.Config{Rho: 20})
	return NewEngine(base, lex, res), base
}

func TestParseBasic(t *testing.T) {
	e, _ := engine(t)
	q, err := e.Parse("cute animals")
	if err != nil {
		t.Fatal(err)
	}
	if q.Property != "cute" || q.Type != "animal" || q.Negated {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseSingularTypeNoun(t *testing.T) {
	e, _ := engine(t)
	q, err := e.Parse("cute animal")
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != "animal" {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseNegated(t *testing.T) {
	e, _ := engine(t)
	q, err := e.Parse("not cute animals")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Negated || q.Property != "cute" {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseAdverb(t *testing.T) {
	e, _ := engine(t)
	q, err := e.Parse("very cute animals")
	if err != nil {
		t.Fatal(err)
	}
	if q.Property != "very cute" {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	e, _ := engine(t)
	for _, bad := range []string{
		"",                    // empty
		"animals",             // no adjective
		"cute",                // no type
		"cute spaceships",     // unknown type
		"xyzzy animals",       // unknown adjective
		"cute animals please", // trailing words
	} {
		if _, err := e.Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestRunCuteAnimals(t *testing.T) {
	e, _ := engine(t)
	answers, err := e.Run("cute animals")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) < 4 {
		t.Fatalf("answers = %v", answers)
	}
	got := map[string]bool{}
	for _, a := range answers {
		got[a.Entity] = true
		if a.Probability <= 0.5 {
			t.Fatalf("answer below threshold: %+v", a)
		}
	}
	for _, want := range []string{"kitten", "puppy", "koala"} {
		if !got[want] {
			t.Errorf("%s missing from cute animals: %v", want, answers)
		}
	}
	for _, not := range []string{"spider", "scorpion"} {
		if got[not] {
			t.Errorf("%s should not be a cute animal", not)
		}
	}
	// Ranking is by probability then evidence.
	for i := 1; i < len(answers); i++ {
		if answers[i].Probability > answers[i-1].Probability+1e-12 {
			t.Fatalf("ranking broken at %d: %v", i, answers)
		}
	}
}

func TestRunNegatedQuery(t *testing.T) {
	e, _ := engine(t)
	answers, err := e.Run("not cute animals")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, a := range answers {
		got[a.Entity] = true
	}
	if !got["spider"] || !got["scorpion"] {
		t.Fatalf("negated query missing clear negatives: %v", answers)
	}
	if got["kitten"] {
		t.Fatal("kitten in 'not cute animals'")
	}
}

func TestExecuteMinProbability(t *testing.T) {
	e, _ := engine(t)
	q, _ := e.Parse("cute animals")
	q.MinProbability = 0.99
	strict, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	q.MinProbability = 0.5
	loose, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) > len(loose) {
		t.Fatalf("raising the bar grew the result: %d vs %d", len(strict), len(loose))
	}
	for _, a := range strict {
		if a.Probability <= 0.99 {
			t.Fatalf("strict result below bar: %+v", a)
		}
	}
}

func TestRunUnmodelledProperty(t *testing.T) {
	e, _ := engine(t)
	if _, err := e.Run("dangerous animals"); err == nil {
		t.Fatal("unmodelled property should error")
	} else if !strings.Contains(err.Error(), "no mined opinions") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestProperties(t *testing.T) {
	e, _ := engine(t)
	props := e.Properties("animal")
	found := false
	for _, p := range props {
		if p == "cute" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Properties(animal) = %v", props)
	}
	if got := e.Properties("city"); len(got) != 0 {
		t.Fatalf("Properties(city) = %v", got)
	}
}
