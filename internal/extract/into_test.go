package extract

import (
	"reflect"
	"testing"

	"repro/internal/nlp/depparse"
	"repro/internal/tagger"
)

// TestExtractIntoMatchesExtract reuses one statement buffer across a batch
// of sentences and versions, checking the appended statements against a
// fresh buffer each time.
func TestExtractIntoMatchesExtract(t *testing.T) {
	r := newRig()
	texts := []string{
		"Snakes are dangerous.",
		"Chicago is very big and beautiful.",
		"Snakes are not cute animals.",
		"The kitten is cute and the tiger is dangerous.",
		"Nothing about entities here.",
	}
	for _, v := range []Version{V1, V2, V3, V4} {
		x := NewVersion(r.lex, v)
		var buf []Statement
		for _, text := range texts {
			for _, sent := range splitSentences(text) {
				tagged := r.pt.TagInto(nil, sent)
				mentions := r.et.TagInto(nil, new(tagger.Scratch), tagged)
				tree := r.dp.ParseInto(new(depparse.Scratch), tagged)
				want := x.ExtractInto(nil, tree, mentions)
				buf = x.ExtractInto(buf[:0], tree, mentions)
				if len(want) == 0 && len(buf) == 0 {
					continue
				}
				if !reflect.DeepEqual(buf, want) {
					t.Fatalf("v%d %q: ExtractInto = %+v, want %+v", v, text, buf, want)
				}
			}
		}
	}
}

// TestExtractIntoDedupScope pins that deduplication only covers the
// current call: the same claim appended by an earlier sentence in the
// buffer must not suppress a later sentence's statement.
func TestExtractIntoDedupScope(t *testing.T) {
	r := newRig()
	x := NewVersion(r.lex, V4)
	sent := splitSentences("Snakes are dangerous.")[0]
	tagged := r.pt.TagInto(nil, sent)
	mentions := r.et.TagInto(nil, new(tagger.Scratch), tagged)
	tree := r.dp.ParseInto(new(depparse.Scratch), tagged)

	first := x.ExtractInto(nil, tree, mentions)
	if len(first) != 1 {
		t.Fatalf("fixture yields %d statements, want 1", len(first))
	}
	both := x.ExtractInto(first, tree, mentions)
	if len(both) != 2 {
		t.Fatalf("second sentence suppressed: %d statements, want 2", len(both))
	}
	if !reflect.DeepEqual(both[0], both[1]) {
		t.Fatalf("statements diverge: %+v", both)
	}
}
