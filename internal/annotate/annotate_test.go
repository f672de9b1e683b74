package annotate

import (
	"bytes"
	"strings"
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

func TestCodecRoundTrip(t *testing.T) {
	_, _, a := fixture()
	docs := annotateAll(a, []corpus.Document{
		{URL: "http://a.example.com", Domain: "com", Author: 1,
			Text: "San Francisco is not a big city. I love it."},
		{URL: "http://b.example.cn", Domain: "cn", Author: 2,
			Text: "Kittens are cute and lovely animals."},
		{URL: "http://c.example.com", Domain: "com", Author: 3, Text: ""},
	})

	var buf bytes.Buffer
	if err := Write(&buf, docs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(docs) {
		t.Fatalf("docs = %d, want %d", len(got), len(docs))
	}
	for di := range docs {
		want, have := docs[di], got[di]
		if want.URL != have.URL || want.Domain != have.Domain || want.Author != have.Author {
			t.Fatalf("doc %d metadata mismatch", di)
		}
		if len(want.Sentence) != len(have.Sentence) {
			t.Fatalf("doc %d sentences %d vs %d", di, len(want.Sentence), len(have.Sentence))
		}
		for si := range want.Sentence {
			ws, hs := want.Sentence[si], have.Sentence[si]
			if len(ws.Tokens) != len(hs.Tokens) {
				t.Fatalf("token count mismatch")
			}
			for ti := range ws.Tokens {
				if ws.Tokens[ti].Text != hs.Tokens[ti].Text ||
					ws.Tokens[ti].Tag != hs.Tokens[ti].Tag ||
					ws.Tokens[ti].Start != hs.Tokens[ti].Start ||
					ws.Tokens[ti].End != hs.Tokens[ti].End {
					t.Fatalf("token %d mismatch: %+v vs %+v", ti, ws.Tokens[ti], hs.Tokens[ti])
				}
			}
			if (ws.Tree == nil) != (hs.Tree == nil) {
				t.Fatalf("tree presence mismatch")
			}
			if ws.Tree != nil {
				if ws.Tree.Root() != hs.Tree.Root() {
					t.Fatalf("root mismatch")
				}
				for ni := range ws.Tree.Nodes {
					wn, hn := ws.Tree.Nodes[ni], hs.Tree.Nodes[ni]
					if wn.Head != hn.Head || wn.Rel != hn.Rel {
						t.Fatalf("node %d: %+v vs %+v", ni, wn, hn)
					}
				}
			}
			if len(ws.Mentions) != len(hs.Mentions) {
				t.Fatalf("mention count mismatch")
			}
			for mi := range ws.Mentions {
				if ws.Mentions[mi] != hs.Mentions[mi] {
					t.Fatalf("mention %d mismatch", mi)
				}
			}
		}
	}
}

func TestCodecExtractionEquivalence(t *testing.T) {
	// The real invariant: extraction over deserialised annotations yields
	// exactly the same statements as over fresh ones.
	snapKB := kb.Default(1)
	lex2 := lexicon.Default()
	snapKB.RegisterLexicon(lex2)
	gen := corpus.NewGenerator(snapKB, corpus.Table2Specs(), corpus.Config{Seed: 9, Scale: 0.05})
	snap := gen.Generate()
	a := New(snapKB, lex2)

	docs := annotateAll(a, snap.Documents)
	var buf bytes.Buffer
	if err := Write(&buf, docs); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	ex := extract.NewVersion(lex2, extract.V4)
	count := func(ds []Document) map[extract.Statement]int {
		m := map[extract.Statement]int{}
		for _, d := range ds {
			for _, s := range d.Sentence {
				if s.Tree == nil {
					continue
				}
				for _, st := range ex.Extract(s.Tree, s.Mentions) {
					m[st]++
				}
			}
		}
		return m
	}
	fresh, reread := count(docs), count(loaded)
	if len(fresh) == 0 {
		t.Fatal("no statements extracted at all")
	}
	if len(fresh) != len(reread) {
		t.Fatalf("statement sets differ: %d vs %d", len(fresh), len(reread))
	}
	//lint:allow detmap order-independent multiset-equality assertion; no ordered output is produced
	for k, v := range fresh {
		if reread[k] != v {
			t.Fatalf("statement %+v count %d vs %d", k, v, reread[k])
		}
	}
}

func TestReadRejectsBadHeader(t *testing.T) {
	if _, err := Read(strings.NewReader("NOTANN\n")); err == nil {
		t.Fatal("Read should reject a wrong header")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	_, _, a := fixture()
	docs := annotateAll(a, []corpus.Document{{Text: "Kittens are cute."}})
	var buf bytes.Buffer
	if err := Write(&buf, docs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) / 2, len(data) - 1, len(codecHeader) + 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("Read accepted input truncated at %d", cut)
		}
	}
}

func TestWriteEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d docs from empty write", len(got))
	}
}
