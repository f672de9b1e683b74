package tagger

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
)

// TestTagIntoMatchesTag drives one Scratch and one growing destination
// through a batch of sentences and checks the appended mentions against
// a nil destination and a fresh Scratch — including sentences that link
// nothing.
func TestTagIntoMatchesTag(t *testing.T) {
	_, _, tg, pt := setup()
	texts := []string{
		"Kittens are cute.",
		"San Francisco is a big city.",
		"Phoenix is a big city.",
		"Nothing to see here.",
		"The white shark is a dangerous animal near Palo Alto.",
		"",
	}
	sc := new(Scratch)
	var buf []Mention
	for round := 0; round < 2; round++ {
		for _, text := range texts {
			for _, sent := range splitSentences(text) {
				tagged := pt.TagInto(nil, sent)
				want := tg.TagInto(nil, new(Scratch), tagged)
				buf = tg.TagInto(buf[:0], sc, tagged)
				if len(want) == 0 && len(buf) == 0 {
					continue
				}
				if !reflect.DeepEqual(buf, want) {
					t.Fatalf("%q: TagInto = %+v, want %+v", text, buf, want)
				}
			}
		}
	}
}

// TestTagIntoPreservesPrefix checks the append contract.
func TestTagIntoPreservesPrefix(t *testing.T) {
	_, _, tg, pt := setup()
	tagged := pt.TagInto(nil, splitSentences("Kittens are cute.")[0])
	prefix := []Mention{{Entity: 42, Start: 7, End: 9, Head: 8}}
	got := tg.TagInto(append([]Mention(nil), prefix...), new(Scratch), tagged)
	if len(got) != 1+len(tg.TagInto(nil, new(Scratch), tagged)) || !reflect.DeepEqual(got[0], prefix[0]) {
		t.Fatalf("prefix not preserved: %+v", got)
	}
}

// TestFirstWordSpanHint pins the probe-skipping fast path: a sentence
// whose tokens never start an alias must still go through the full
// plausibility logic when one does.
func TestFirstWordSpanHint(t *testing.T) {
	base, lex, tg, pt := setup()
	table := base.AliasTable(lex)
	if got := table.Span(lex.Word("zzz")); got != 0 {
		t.Fatalf("Span(zzz) = %d, want 0", got)
	}
	if got := table.Span(lex.Word("san")); got != 2 {
		t.Fatalf("Span(san) = %d, want 2", got)
	}
	// "San" alone must still be blocked by the failing longer span when the
	// two-token surface exists: greedy longest-match semantics unchanged.
	tagged := pt.TagInto(nil, splitSentences("San Francisco is big.")[0])
	mentions := tg.TagInto(nil, new(Scratch), tagged)
	if len(mentions) != 1 || mentions[0].End-mentions[0].Start != 2 {
		t.Fatalf("mentions = %+v", mentions)
	}
}

// TestTagIntoDoesNotAllocate pins the id-indexed hot path with warm
// buffers: tokens that start no alias, a multi-token alias (the one probe
// that goes through the scratch surface), a single-token plural, a name
// two entities share, and an ambiguous name with and without type context.
func TestTagIntoDoesNotAllocate(t *testing.T) {
	_, _, tg, pt := setup()
	var sents [][]pos.Tagged
	for _, text := range []string{
		"Nothing to see here, really.",
		"San Francisco is not a big city.",
		"The white shark is a dangerous animal near Palo Alto, and kittens are cute.",
		"Phoenix is a big city. Phoenix is a famous celebrity.",
		"Ontario is a big city. Ontario is big.",
	} {
		for _, sent := range splitSentences(text) {
			sents = append(sents, pt.TagInto(nil, sent))
		}
	}
	sc := new(Scratch)
	var buf []Mention
	total := 0
	for _, tagged := range sents { // grow the buffers
		buf = tg.TagInto(buf[:0], sc, tagged)
		total += len(buf)
	}
	if total != 7 {
		t.Fatalf("fixture links %d mentions, want 7", total)
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, tagged := range sents {
			buf = tg.TagInto(buf[:0], sc, tagged)
		}
	}); got != 0 {
		t.Fatalf("TagInto allocates %v times per run, want 0", got)
	}
}

// TestNewDoesNotWalkAliases builds a knowledge base of 100k aliases in 5
// types: the alias table (type nouns included) is built at registration,
// so New allocates the tagger and nothing that grows with the aliases — or
// even the types.
func TestNewDoesNotWalkAliases(t *testing.T) {
	base := kb.New()
	types := []string{"city", "gadget", "widget", "river", "gizmo"}
	for i := 0; i < 50_000; i++ {
		base.Add(kb.Entity{Name: fmt.Sprintf("thing%d", i), Type: types[i%len(types)],
			Aliases: []string{fmt.Sprintf("old thing%d", i)}})
	}
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	if got := testing.AllocsPerRun(10, func() { New(base, lex) }); got > 1 {
		t.Fatalf("New allocates %v times on a registered 100k-alias knowledge base, want 1", got)
	}
	lex.AddAdjective("spiffy") // the registered table is stale now: New rebuilds it
	if got, limit := testing.AllocsPerRun(10, func() { New(base, lex) }), float64(8+4*len(types)); got > limit {
		t.Fatalf("New allocates %v times rebuilding the table for %d types, want at most %v", got, len(types), limit)
	}
}

// TestUnregisteredKnowledgeBaseStillLinks covers the lexicon that was never
// told about the knowledge base: alias first words and type nouns it does
// not know carry the unknown word's id 0 and must link by their text —
// without every other unknown token passing for the type noun.
func TestUnregisteredKnowledgeBaseStillLinks(t *testing.T) {
	base := kb.New()
	base.Add(kb.Entity{Name: "Zyx Qwv", Type: "gizmo", Proper: true})
	base.Add(kb.Entity{Name: "Foo", Type: "gizmo", Proper: true, Ambiguous: true})
	base.Add(kb.Entity{Name: "blorp", Type: "gadget"})
	lex := lexicon.Default()
	tg, pt := New(base, lex), pos.New(lex)
	for _, c := range []struct {
		text string
		want []Mention
	}{
		{"Zyx Qwv is big.", []Mention{{Entity: 0, Start: 0, End: 2, Head: 1}}},
		{"Zyx is big.", nil},
		{"Foo is a nice gizmo.", []Mention{{Entity: 1, Start: 0, End: 1, Head: 0}}},
		{"Foo is one of the nice gizmos.", []Mention{{Entity: 1, Start: 0, End: 1, Head: 0}}},
		{"Foo is a nice frobnitz.", nil},
		{"Foo is nice.", nil},
		{"I saw blorps there.", []Mention{{Entity: 2, Start: 2, End: 3, Head: 2}}},
	} {
		got := tg.TagInto(nil, new(Scratch), pt.TagInto(nil, splitSentences(c.text)[0]))
		if len(got) != len(c.want) || (len(got) > 0 && !reflect.DeepEqual(got, c.want)) {
			t.Errorf("%q: mentions %+v, want %+v", c.text, got, c.want)
		}
	}
}
