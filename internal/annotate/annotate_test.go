package annotate

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
)

func fixture() (*kb.KB, *lexicon.Lexicon, *Annotator) {
	base := kb.New()
	base.Add(kb.Entity{Name: "kitten", Type: "animal"})
	base.Add(kb.Entity{Name: "San Francisco", Type: "city", Proper: true})
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	return base, lex, New(base, lex)
}

func TestAnnotateBasics(t *testing.T) {
	_, _, a := fixture()
	doc := a.Annotate(corpus.Document{
		URL:    "http://x.example.com/1",
		Domain: "com",
		Author: 7,
		Text:   "Kittens are cute. The weather was awful.",
	})
	if doc.URL == "" || doc.Domain != "com" || doc.Author != 7 {
		t.Fatalf("metadata lost: %+v", doc)
	}
	if len(doc.Sentence) != 2 {
		t.Fatalf("sentences = %d", len(doc.Sentence))
	}
	s0 := doc.Sentence[0]
	if len(s0.Mentions) != 1 {
		t.Fatalf("mentions in sentence 0: %v", s0.Mentions)
	}
	if s0.Tree == nil {
		t.Fatal("mention-bearing sentence should be parsed")
	}
	// Sentence without mentions skips parsing but keeps tokens.
	s1 := doc.Sentence[1]
	if s1.Tree != nil {
		t.Fatal("mention-free sentence should not be parsed")
	}
	if len(s1.Tokens) == 0 {
		t.Fatal("tokens must be kept either way")
	}
}

func TestAnnotatedExtractionMatchesDirect(t *testing.T) {
	base, lex, a := fixture()
	_ = base
	ex := extract.NewVersion(lex, extract.V4)
	doc := a.Annotate(corpus.Document{Text: "San Francisco is not a big city. Kittens are cute."})
	total := 0
	for _, s := range doc.Sentence {
		if s.Tree == nil {
			continue
		}
		total += len(ex.Extract(s.Tree, s.Mentions))
	}
	if total != 2 {
		t.Fatalf("extractions from annotations = %d, want 2", total)
	}
}

func annotateAll(a *Annotator, docs []corpus.Document) []Document {
	out := make([]Document, len(docs))
	for i, d := range docs {
		out[i] = a.Annotate(d)
	}
	return out
}
