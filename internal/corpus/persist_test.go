package corpus

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// chunkReader delivers at most n bytes per Read, forcing the iterator's
// line assembly through its fragmentation paths.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

func sampleDocs() []Document {
	return []Document{
		{URL: "http://a/1", Domain: "a", Author: 7, Text: "Kittens are cute."},
		{URL: "http://b/2", Domain: "b", Author: 9, Text: "Spiders are not cute.\nSnakes are dangerous."},
		{URL: "http://c/3", Domain: "c", Text: "Paris is beautiful."},
	}
}

// readJSONL reads a whole snapshot through one strict Iterator.
func readJSONL(r io.Reader) ([]Document, error) {
	it := NewIterator(r, IteratorConfig{})
	var docs []Document
	for it.Next() {
		docs = append(docs, it.Doc())
	}
	return docs, it.Err()
}

func TestIteratorStrictMatchesReadJSONL(t *testing.T) {
	var buf bytes.Buffer
	docs := sampleDocs()
	if err := WriteJSONL(&buf, docs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	want, err := readJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Byte-at-a-time delivery must not change what the iterator decodes.
	it := NewIterator(&chunkReader{r: bytes.NewReader(data), n: 1}, IteratorConfig{})
	var got []Document
	for it.Next() {
		got = append(got, it.Doc())
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator failed: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d documents, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("doc %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if st := it.Stats(); st.Docs != int64(len(want)) || st.Skipped() != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIteratorStrictOversizedLine(t *testing.T) {
	input := `{"text":"ok"}` + "\n" + strings.Repeat("x", 200) + "\n" + `{"text":"after"}` + "\n"
	it := NewIterator(strings.NewReader(input), IteratorConfig{MaxLineBytes: 64})
	if !it.Next() {
		t.Fatalf("first document rejected: %v", it.Err())
	}
	if it.Next() {
		t.Fatal("oversized line decoded")
	}
	err := it.Err()
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
	var le *LineError
	if !errors.As(err, &le) || le.Line != 2 {
		t.Fatalf("err = %v, want *LineError on line 2", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not name the line", err)
	}
}

func TestReadJSONLSurfacesOversizedLine(t *testing.T) {
	// The >MaxLineBytes document must fail with the line number and
	// bufio.ErrTooLong, not a generic read error.
	var buf bytes.Buffer
	docs := []Document{
		{URL: "u1", Text: "small"},
		{URL: "u2", Text: strings.Repeat("y", DefaultMaxLineBytes+1)},
	}
	if err := WriteJSONL(&buf, docs); err != nil {
		t.Fatal(err)
	}
	_, err := readJSONL(&buf)
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
	var le *LineError
	if !errors.As(err, &le) || le.Line != 2 {
		t.Fatalf("err = %v, want *LineError on line 2", err)
	}
}

func TestIteratorLenientSkipsAndCounts(t *testing.T) {
	var valid bytes.Buffer
	docs := sampleDocs()
	if err := WriteJSONL(&valid, docs); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(valid.String(), "\n")
	input := "not json at all\n" + lines[0] + "\n" + // malformed + valid + blank
		strings.Repeat("z", 500) + "\n" + // oversized
		lines[1] + "[1,2,3\n" + lines[2] // malformed between valid docs

	it := NewIterator(strings.NewReader(input), IteratorConfig{Lenient: true, MaxLineBytes: 256})
	var got []Document
	for it.Next() {
		got = append(got, it.Doc())
	}
	if err := it.Err(); err != nil {
		t.Fatalf("lenient iteration failed: %v", err)
	}
	if len(got) != len(docs) {
		t.Fatalf("decoded %d documents, want %d", len(got), len(docs))
	}
	for i := range docs {
		if got[i] != docs[i] {
			t.Errorf("doc %d: %+v vs %+v", i, got[i], docs[i])
		}
	}
	st := it.Stats()
	if st.Malformed != 2 || st.Oversized != 1 || st.Skipped() != 3 {
		t.Errorf("stats = %+v, want 2 malformed + 1 oversized", st)
	}
	if st.Docs != int64(len(docs)) {
		t.Errorf("stats.Docs = %d, want %d", st.Docs, len(docs))
	}
}

func TestIteratorLenientOversizedAcrossBuffer(t *testing.T) {
	// An oversized line much larger than the bufio buffer must be skipped
	// whole, not resynchronised mid-line into phantom documents.
	big := strings.Repeat(`{"text":"x"}`, 20<<10) // ~240 KiB on one line
	input := big + "\n" + `{"text":"ok"}` + "\n"
	it := NewIterator(&chunkReader{r: strings.NewReader(input), n: 997},
		IteratorConfig{Lenient: true, MaxLineBytes: 1024})
	var got []Document
	for it.Next() {
		got = append(got, it.Doc())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Text != "ok" {
		t.Fatalf("decoded %+v, want the single trailing document", got)
	}
	if st := it.Stats(); st.Oversized != 1 {
		t.Errorf("stats = %+v, want one oversized line", st)
	}
}

func TestIteratorUnterminatedFinalLine(t *testing.T) {
	input := `{"text":"a"}` + "\n" + `{"text":"b"}` // no trailing newline
	it := NewIterator(strings.NewReader(input), IteratorConfig{})
	var texts []string
	for it.Next() {
		texts = append(texts, it.Doc().Text)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(texts) != 2 || texts[1] != "b" {
		t.Fatalf("decoded %v, want both documents", texts)
	}
}

func TestIteratorCRLF(t *testing.T) {
	input := "{\"text\":\"a\"}\r\n{\"text\":\"b\"}\r\n"
	it := NewIterator(strings.NewReader(input), IteratorConfig{})
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatalf("CRLF input rejected: %v", err)
	}
	if n != 2 {
		t.Fatalf("decoded %d documents, want 2", n)
	}
}

func TestIteratorPropagatesReadError(t *testing.T) {
	boom := errors.New("disk on fire")
	for _, lenient := range []bool{false, true} {
		it := NewIterator(io.MultiReader(strings.NewReader(`{"text":"a"}`+"\n"), &failAfter{err: boom}),
			IteratorConfig{Lenient: lenient})
		if !it.Next() {
			t.Fatalf("lenient=%v: first document rejected: %v", lenient, it.Err())
		}
		if it.Next() {
			t.Fatalf("lenient=%v: decoded past a read error", lenient)
		}
		if !errors.Is(it.Err(), boom) {
			t.Fatalf("lenient=%v: err = %v, want the read error", lenient, it.Err())
		}
	}
}

type failAfter struct{ err error }

func (f *failAfter) Read([]byte) (int, error) { return 0, f.err }
