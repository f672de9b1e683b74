// Package annotate implements the annotation layer of the Surveyor
// architecture: the paper's extraction consumes a web snapshot that "was
// preprocessed using NLP tools and contains annotations mapping text
// mentions of entities to our knowledge base" (Section 3). This package
// produces that representation — per sentence: tagged tokens, the typed
// dependency tree, and the resolved entity mentions — so extraction (and
// extraction-version sweeps like Table 4) can run repeatedly without
// re-parsing, exactly as the paper's pipeline separates annotation from
// extraction.
package annotate

import (
	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/tagger"
)

// Sentence is one fully annotated sentence.
type Sentence struct {
	Tokens   []pos.Tagged
	Tree     *depparse.Tree
	Mentions []tagger.Mention
}

// Document is an annotated web document.
type Document struct {
	URL      string
	Domain   string
	Author   int
	Sentence []Sentence
}

// Annotator runs the NLP front end. It is immutable and safe for
// concurrent use.
type Annotator struct {
	pos    *pos.Tagger
	parser *depparse.Parser
	linker *tagger.Tagger
}

// New builds an annotator over the knowledge base and lexicon.
func New(base *kb.KB, lex *lexicon.Lexicon) *Annotator {
	return &Annotator{
		pos:    pos.New(lex),
		parser: depparse.New(lex),
		linker: tagger.New(base, lex),
	}
}

// Annotate processes one raw document. Sentences without any entity
// mention keep their tokens but skip parsing (extraction cannot use them,
// and the pipeline's dominant cost is parsing).
func (a *Annotator) Annotate(doc corpus.Document) Document {
	out := Document{URL: doc.URL, Domain: doc.Domain, Author: doc.Author}
	for _, sent := range token.SplitSentences(doc.Text) {
		tagged := a.pos.Tag(sent)
		mentions := a.linker.Tag(tagged)
		as := Sentence{Tokens: tagged, Mentions: mentions}
		if len(mentions) > 0 {
			as.Tree = a.parser.Parse(tagged)
		}
		out.Sentence = append(out.Sentence, as)
	}
	return out
}
