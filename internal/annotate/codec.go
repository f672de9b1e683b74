package annotate

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/tagger"
)

// The binary annotation format, versioned by the header. All integers are
// varints; strings are length-prefixed. Head indices are stored offset by
// one so the root's -1 fits in an unsigned varint.
const codecHeader = "SVANN1\n"

// Decode-side sanity limits. A forged or corrupt stream must not cost
// unbounded memory, so every decoded count is checked against a named
// cap before it sizes an allocation or drives a growth loop.
const (
	maxDocCount  = 1 << 28
	maxStringLen = 1 << 20
	maxSentences = 1 << 24
	maxTokens    = 1 << 20
	maxMentions  = 1 << 20
)

// Write serialises annotated documents.
func Write(w io.Writer, docs []Document) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecHeader); err != nil {
		return fmt.Errorf("annotate: write header: %w", err)
	}
	e := &encoder{w: bw}
	e.uvarint(uint64(len(docs)))
	for i := range docs {
		e.document(&docs[i])
	}
	if e.err != nil {
		return fmt.Errorf("annotate: write: %w", e.err)
	}
	return bw.Flush()
}

// Read deserialises documents written by Write.
func Read(r io.Reader) ([]Document, error) {
	br := bufio.NewReader(r)
	header := make([]byte, len(codecHeader))
	if _, err := io.ReadFull(br, header); err != nil || string(header) != codecHeader {
		return nil, fmt.Errorf("annotate: bad header %q: %w", header, err)
	}
	d := &decoder{r: br}
	n := d.uvarint()
	if n > maxDocCount {
		return nil, fmt.Errorf("annotate: implausible document count %d", n)
	}
	// The count is untrusted until that many documents actually decode, so
	// cap the preallocation: a forged header must not cost gigabytes.
	docs := make([]Document, 0, min(n, 4096))
	for i := uint64(0); i < n; i++ {
		doc := d.document()
		if d.err != nil {
			return nil, fmt.Errorf("annotate: read document %d: %w", i, d.err)
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *encoder) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *encoder) document(d *Document) {
	e.str(d.URL)
	e.str(d.Domain)
	e.uvarint(uint64(d.Author))
	e.uvarint(uint64(len(d.Sentence)))
	for i := range d.Sentence {
		e.sentence(&d.Sentence[i])
	}
}

func (e *encoder) sentence(s *Sentence) {
	e.uvarint(uint64(len(s.Tokens)))
	for _, t := range s.Tokens {
		e.str(t.Text)
		e.uvarint(uint64(t.Tag))
		e.uvarint(uint64(t.Start))
		e.uvarint(uint64(t.End))
	}
	if s.Tree == nil {
		e.uvarint(0)
	} else {
		e.uvarint(1)
		e.uvarint(uint64(s.Tree.Root() + 1))
		for _, n := range s.Tree.Nodes {
			e.uvarint(uint64(n.Head + 1))
			e.str(string(n.Rel))
		}
	}
	e.uvarint(uint64(len(s.Mentions)))
	for _, m := range s.Mentions {
		e.uvarint(uint64(m.Entity))
		e.uvarint(uint64(m.Start))
		e.uvarint(uint64(m.End))
		e.uvarint(uint64(m.Head))
	}
}

type decoder struct {
	r   *bufio.Reader
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen {
		d.err = fmt.Errorf("string length %d too large", n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = err
		return ""
	}
	return string(buf)
}

func (d *decoder) document() Document {
	var doc Document
	doc.URL = d.str()
	doc.Domain = d.str()
	doc.Author = int(d.uvarint())
	nSents := d.uvarint()
	if d.err != nil || nSents > maxSentences {
		if d.err == nil {
			d.err = fmt.Errorf("implausible sentence count %d", nSents)
		}
		return doc
	}
	for i := uint64(0); i < nSents; i++ {
		doc.Sentence = append(doc.Sentence, d.sentence())
		if d.err != nil {
			return doc
		}
	}
	return doc
}

func (d *decoder) sentence() Sentence {
	var s Sentence
	nTok := d.uvarint()
	if d.err != nil || nTok > maxTokens {
		if d.err == nil {
			d.err = fmt.Errorf("implausible token count %d", nTok)
		}
		return s
	}
	for i := uint64(0); i < nTok; i++ {
		text := d.str()
		tag := lexicon.Tag(d.uvarint())
		start := int(d.uvarint())
		end := int(d.uvarint())
		// token.New fills the lowercase cache, so decoded tokens read like
		// freshly annotated ones. The lexicon record (pos.Tagged.Word) is
		// not restored: decoded sentences reach only the extractor.
		s.Tokens = append(s.Tokens, pos.Tagged{
			Token: token.New(text, start, end),
			Tag:   tag,
		})
	}
	if d.uvarint() == 1 && d.err == nil {
		root := int(d.uvarint()) - 1
		heads := make([]int, len(s.Tokens))
		rels := make([]depparse.Label, len(s.Tokens))
		for i := range s.Tokens {
			heads[i] = int(d.uvarint()) - 1
			rels[i] = depparse.Label(d.str())
		}
		if d.err == nil {
			// Assemble indexes by head, so corrupt indices must be
			// rejected here rather than panic downstream.
			if root < -1 || root >= len(s.Tokens) {
				d.err = fmt.Errorf("tree root %d out of range for %d tokens", root, len(s.Tokens))
				return s
			}
			for i, h := range heads {
				if h < -1 || h >= len(s.Tokens) {
					d.err = fmt.Errorf("node %d head %d out of range for %d tokens", i, h, len(s.Tokens))
					return s
				}
			}
			s.Tree = depparse.Assemble(s.Tokens, heads, rels, root)
		}
	}
	nMen := d.uvarint()
	if d.err != nil || nMen > maxMentions {
		if d.err == nil {
			d.err = fmt.Errorf("implausible mention count %d", nMen)
		}
		return s
	}
	for i := uint64(0); i < nMen; i++ {
		s.Mentions = append(s.Mentions, tagger.Mention{
			Entity: kb.EntityID(d.uvarint()),
			Start:  int(d.uvarint()),
			End:    int(d.uvarint()),
			Head:   int(d.uvarint()),
		})
	}
	return s
}
