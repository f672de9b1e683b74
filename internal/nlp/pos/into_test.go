package pos

import (
	"reflect"
	"testing"

	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/token"
)

// TestTagIntoMatchesTag checks the append contract: prefix preserved,
// appended suffix equal to the tags of a fresh buffer.
func TestTagIntoMatchesTag(t *testing.T) {
	tg := New(lexicon.Default())
	texts := []string{
		"Kittens are cute.",
		"The very fast dog doesn't play that visit.",
		"A crowded city is pretty noisy!",
	}
	var buf []Tagged
	for _, text := range texts {
		for _, sent := range splitSentences(text) {
			want := tg.TagInto(nil, sent)
			prefixLen := len(buf)
			buf = tg.TagInto(buf, sent)
			if !reflect.DeepEqual(buf[prefixLen:], want) {
				t.Fatalf("%q: TagInto suffix diverges\ngot  %+v\nwant %+v",
					text, buf[prefixLen:], want)
			}
		}
	}
}

// TestTagIntoDoesNotAllocate pins that tagging reads records and nothing
// else: one lexicon probe per token with its cached lower-cased form, then
// bit tests — ambiguous words, out-of-vocabulary suffix guesses and
// capitalised unknowns included.
func TestTagIntoDoesNotAllocate(t *testing.T) {
	tg := New(lexicon.Default())
	var sents []token.Sentence
	for _, text := range []string{
		"I think that that city is pretty big.",
		"They do not visit; the visit was fast and the crowded Zorbville was running quickly.",
		"Blorp isn't frobnicated, 42 glamorous heroic childish things!",
	} {
		sents = append(sents, splitSentences(text)...)
	}
	var buf []Tagged
	for _, s := range sents {
		buf = tg.TagInto(buf[:0], s) // grow the buffer
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, s := range sents {
			buf = tg.TagInto(buf[:0], s)
		}
	}); got != 0 {
		t.Fatalf("TagInto allocates %v times per run, want 0", got)
	}
}

// TestTaggedCarriesLexiconRecord checks the record TagInto stores on each
// token against the lexicon's string API: same id as a fresh probe, and the
// unknown word's zero record for out-of-vocabulary tokens.
func TestTaggedCarriesLexiconRecord(t *testing.T) {
	lex := lexicon.Default()
	tagged := New(lex).TagInto(nil, splitSentences("Blorp DOESN'T think that Kittens are pretty.")[0])
	for _, tok := range tagged {
		if tok.Word != lex.Word(tok.Lower()) {
			t.Errorf("%q: record %+v, lexicon has %+v", tok.Text, tok.Word, lex.Word(tok.Lower()))
		}
		if _, known := lex.Lookup(tok.Text); known != tok.Word.Known() {
			t.Errorf("%q: Known() = %v, Lookup says %v", tok.Text, tok.Word.Known(), known)
		}
	}
	if tagged[0].Word.Known() || !tagged[1].Word.HasTag(lexicon.Aux) || !tagged[2].Word.IsNegation() {
		t.Fatalf("records of %q %q %q: %+v %+v %+v", tagged[0].Text, tagged[1].Text, tagged[2].Text,
			tagged[0].Word, tagged[1].Word, tagged[2].Word)
	}
}
