package corpus

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzJSONL drives the JSONL reader with arbitrary bytes interleaved into
// a valid snapshot: the write→read round trip must preserve every valid
// document, garbage must never panic or wedge the iterator, and lenient
// iteration must account for every input line as either a document, a
// skip, or a blank.
func FuzzJSONL(f *testing.F) {
	f.Add("hello", "not json", 0)
	f.Add("Kittens are cute.", `{"truncated":`, 1)
	f.Add("a\nb\nc", strings.Repeat("x", 300), 2)
	f.Add("", "\x00\xff\xfe", 3)
	f.Add("quote\"back\\slash", "[1,2,3]", 1)
	f.Fuzz(func(t *testing.T, text, garbage string, pos int) {
		if strings.ContainsAny(garbage, "\n\r") || !utf8.ValidString(text) {
			// Injected garbage must stay on its own line, and Go's JSON
			// encoder replaces invalid UTF-8 (breaking round-trip equality)
			// — neither case is what this fuzz target is about.
			t.Skip()
		}
		docs := []Document{
			{URL: "u0", Domain: "d", Author: 7, Text: text},
			{URL: "u1", Text: "second"},
			{URL: "u2", Text: "third"},
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, docs); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}

		// Clean round trip first.
		got, err := readJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(got) != len(docs) {
			t.Fatalf("round trip decoded %d documents, want %d", len(got), len(docs))
		}
		for i := range docs {
			if got[i] != docs[i] {
				t.Fatalf("round trip doc %d: %+v vs %+v", i, got[i], docs[i])
			}
		}

		// Now splice the garbage line between documents; strict reading may
		// fail (never panic), lenient reading must still deliver every valid
		// document and count the rest.
		lines := strings.SplitAfter(buf.String(), "\n")
		if pos < 0 {
			pos = -pos
		}
		pos %= len(lines)
		dirty := strings.Join(lines[:pos], "") + garbage + "\n" + strings.Join(lines[pos:], "")

		if _, err := readJSONL(strings.NewReader(dirty)); err != nil {
			var probe Document
			if jerr := probe.unmarshalProbe(garbage); jerr == nil {
				t.Fatalf("strict read rejected input whose extra line is valid: %v", err)
			}
		}

		it := NewIterator(strings.NewReader(dirty), IteratorConfig{Lenient: true, MaxLineBytes: 256})
		var kept []Document
		for it.Next() {
			kept = append(kept, it.Doc())
		}
		if err := it.Err(); err != nil {
			t.Fatalf("lenient read failed: %v", err)
		}
		st := it.Stats()
		oversized := 0
		for _, l := range strings.SplitAfter(dirty, "\n") {
			if len(trimEOL([]byte(l))) > 256 {
				oversized++
			}
		}
		if int(st.Oversized) != oversized {
			t.Fatalf("counted %d oversized lines, input has %d", st.Oversized, oversized)
		}
		// Every valid, in-budget document line must survive lenient mode.
		minKept := 0
		for _, l := range strings.SplitAfter(buf.String(), "\n") {
			if n := len(trimEOL([]byte(l))); n > 0 && n <= 256 {
				minKept++
			}
		}
		if len(kept) < minKept {
			t.Fatalf("lenient read kept %d documents, at least %d valid lines present", len(kept), minKept)
		}
	})
}

// unmarshalProbe reports whether one line would decode as a document —
// the fuzz oracle for "should strict mode have accepted this input?".
func (d *Document) unmarshalProbe(line string) error {
	it := NewIterator(strings.NewReader(line+"\n"), IteratorConfig{})
	for it.Next() {
		*d = it.Doc()
	}
	return it.Err()
}
