package testkit

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/tagger"
)

// hostileTexts is the table of inputs the NLP leaves are pinned on beside
// the gate corpus: contractions and clitics, abbreviations and initials,
// all-caps words, digits, NUL and invalid UTF-8 bytes, multi-byte UTF-8,
// lone apostrophes and hyphens at word edges, and entity names in every
// linking situation (multi-token alias, ambiguous name with and without
// type context, lower-cased proper name, plural common noun).
var hostileTexts = []string{
	"can't won't shan't o'clock 'tis U.S. e.g. Mr. J. Smith well-known it's they're I'd",
	"CAN'T WON'T Shan't DON'T Don't n't N'T 's 'S x's X'S I'M we've WE'VE she'll",
	"NASA AND THE FBI ARE NOT BIG. SAN FRANCISCO IS A BIG CITY. KITTENS ARE CUTE!",
	"In 1999 there were 42 kittens, 3.14 sharks and 1,000 dogs at 5pm on 24-7 duty.",
	"a\x00b\xffc \xff\xfe \x80abc abc\x80 d\xc3 \xe2\x82 \xf0\x9f\x98",
	"naïve café Zürich is pretty. 北京 is big. São Paulo isn't small — really… “quoted” ‘single’",
	"' - . '' -- ... 'a a' -a a- .a a. 'tis' rock-'n'-roll -well-known- a--b a''b a..b a.-b",
	"San Francisco is not a big city. San Francisco's weather isn't bad. san francisco is big.",
	"Ontario is big. Ontario is a big city. Phoenix is hot. Phoenix is a hot city.",
	"I don't think that snakes are never dangerous animals. Kittens are cute and lovely animals.",
	"Los Angeles, San Diego and San Jose are big cities; Palo Alto is a pretty small town.",
	"That city is pretty big. I think that that is pretty. They do not visit. Do they play fast?",
	"The crowded beach was crowded. He is running. It seemed charming, touristy and walkable.",
	"Mr. Smith visited St. Helena vs. Napa etc. and met Dr. J. R. Jones Jr. in San Jose. Really?! Yes.",
	"",
	"   \t\r\n  ",
	"Kitten",
	"kittens.",
	"He has visited. She was visiting. A running kitten. Very crowded places. They crowded the beach.",
	"The visit was nice. They visit often. A fast play. Fast cars go fast. Dogs have not played. Does it play?",
	"Quickly, the famous glamorous Swedish-esque heroic childish careless visible city got bigger.",
	"WHITE SHARKS ARE DANGEROUS. White sharks are deadly. A white shark isn't a cute animal.",
}

// Generated at commit 3c3d578 (the parent of the resolve-each-token-once
// rewrite) and committed as constants: the differential oracle shares the
// tokenizer, POS tagger and entity tagger with the pipeline, so only a
// pinned digest can see a leaf change that is wrong on both sides.
const (
	goldenGateCorpus        = "11a1169ab77ca24f016ece204852330cda42d1164064276ca7590908cf1bbee7"
	goldenHostileRegistered = "cecc4d507c33c6f6d102c422ed4e14c78deb9760cd290ab853693111ce318bb2"
	goldenHostileBareLex    = "4b9821eb05526fe47c9953df2a41b527538a46253a71237f8bd1eed4949738e1"
)

// leafHasher folds every observable output of the NLP leaves — sentence
// bounds, each token's Text/Start/End/Lower(), tag, mentions, statements —
// into one digest.
type leafHasher struct {
	h   hash.Hash
	pt  *pos.Tagger
	et  *tagger.Tagger
	dp  *depparse.Parser
	ex  *extract.Extractor
	sum struct{ sentences, tokens, mentions, statements int }
}

func newLeafHasher(base *kb.KB, lex *lexicon.Lexicon) *leafHasher {
	return &leafHasher{h: sha256.New(), pt: pos.New(lex), et: tagger.New(base, lex),
		dp: depparse.New(lex), ex: extract.NewVersion(lex, extract.V4)}
}

// splitSentences splits text on fresh buffers.
func splitSentences(text string) []token.Sentence {
	s, _ := token.SplitSentencesInto(nil, nil, text)
	return s
}

func (l *leafHasher) add(text string) {
	fmt.Fprintf(l.h, "D %d\n", len(text))
	for _, sent := range splitSentences(text) {
		l.sum.sentences++
		fmt.Fprintf(l.h, "S %d %d %d\n", sent.Start, sent.End, len(sent.Tokens))
		tagged := l.pt.TagInto(nil, sent)
		for _, t := range tagged {
			l.sum.tokens++
			fmt.Fprintf(l.h, "T %q %d %d %q %d\n", t.Text, t.Start, t.End, t.Lower(), int(t.Tag))
		}
		mentions := l.et.TagInto(nil, new(tagger.Scratch), tagged)
		for _, m := range mentions {
			l.sum.mentions++
			fmt.Fprintf(l.h, "M %d %d %d %d\n", m.Entity, m.Start, m.End, m.Head)
		}
		if len(mentions) == 0 {
			continue
		}
		for _, st := range l.ex.ExtractInto(nil, l.dp.ParseInto(new(depparse.Scratch), tagged), mentions) {
			l.sum.statements++
			fmt.Fprintf(l.h, "X %d %q %d %d\n", st.Entity, st.Property, st.Polarity, st.Pattern)
		}
	}
}

func (l *leafHasher) digest() string { return fmt.Sprintf("%x", l.h.Sum(nil)) }

// TestNLPLeavesGolden pins the tokenizer, POS tagger, entity tagger and
// extractor to digests generated before the front end was rewritten: over
// the gate corpus, over the hostile table, and over the hostile table with
// a lexicon the knowledge base was never registered with (alias first
// words the lexicon does not know must link all the same).
func TestNLPLeavesGolden(t *testing.T) {
	w := NewWorld(1, diffScale)
	gate := newLeafHasher(w.KB, w.Lex)
	for _, d := range w.Docs() {
		gate.add(d.Text)
	}
	if gate.sum.mentions == 0 || gate.sum.statements == 0 {
		t.Fatalf("gate corpus exercises nothing: %+v", gate.sum)
	}

	hostile := newLeafHasher(w.KB, w.Lex)
	bare := newLeafHasher(kb.Default(1), lexicon.Default())
	for _, text := range hostileTexts {
		hostile.add(text)
		bare.add(text)
	}
	if hostile.sum.mentions == 0 || bare.sum.mentions == 0 {
		t.Fatalf("hostile table links nothing: %+v / %+v", hostile.sum, bare.sum)
	}

	for _, c := range []struct {
		name      string
		got, want string
		sum       any
	}{
		{"gate corpus", gate.digest(), goldenGateCorpus, gate.sum},
		{"hostile table", hostile.digest(), goldenHostileRegistered, hostile.sum},
		{"hostile table, unregistered lexicon", bare.digest(), goldenHostileBareLex, bare.sum},
	} {
		if c.got != c.want {
			t.Errorf("%s: digest %s, want %s (%+v)", c.name, c.got, c.want, c.sum)
		}
	}
}
