package corpus

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// WriteJSONL serialises documents one JSON object per line — the on-disk
// snapshot format shared by cmd/corpusgen and cmd/surveyor.
func WriteJSONL(w io.Writer, docs []Document) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range docs {
		if err := enc.Encode(&docs[i]); err != nil {
			return fmt.Errorf("corpus: write document %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("corpus: flush documents: %w", err)
	}
	return nil
}

// DefaultMaxLineBytes is the per-line size cap of JSONL reading: one
// document on one line, at most 4 MiB. Real crawls contain hostile pages;
// the cap bounds the reader's memory no matter what the input holds.
const DefaultMaxLineBytes = 1 << 22

// LineError locates a corpus read failure on its input line. It wraps the
// underlying cause, so errors.Is(err, bufio.ErrTooLong) identifies an
// oversized line and json.SyntaxError surfaces through errors.As.
type LineError struct {
	Line int64 // 1-based physical line number
	Err  error
}

// Error implements error.
func (e *LineError) Error() string { return fmt.Sprintf("corpus: line %d: %v", e.Line, e.Err) }

// Unwrap exposes the cause.
func (e *LineError) Unwrap() error { return e.Err }

// IteratorConfig controls JSONL iteration.
type IteratorConfig struct {
	// Lenient skips and counts malformed or oversized lines instead of
	// failing the whole read — the mode for hostile real-world corpora.
	// I/O errors from the underlying reader are fatal in both modes.
	Lenient bool
	// MaxLineBytes caps one line (default DefaultMaxLineBytes). Longer
	// lines are an error (strict) or skipped and counted (lenient); memory
	// stays bounded by the cap either way.
	MaxLineBytes int
}

// IteratorStats counts what an Iterator has consumed so far.
type IteratorStats struct {
	// Lines is the number of physical input lines consumed, including
	// blank and skipped ones.
	Lines int64
	// Docs is the number of documents successfully decoded.
	Docs int64
	// Malformed counts lines skipped because they were not valid document
	// JSON (lenient mode only).
	Malformed int64
	// Oversized counts lines skipped because they exceeded MaxLineBytes
	// (lenient mode only).
	Oversized int64
}

// Skipped is the total number of lines dropped by lenient mode.
func (s IteratorStats) Skipped() int64 { return s.Malformed + s.Oversized }

// Iterator streams documents out of a JSONL corpus one at a time in
// bounded memory — the ingestion path for corpora larger than RAM. Usage
// follows the bufio.Scanner idiom:
//
//	it := corpus.NewIterator(r, corpus.IteratorConfig{Lenient: true})
//	for it.Next() {
//		use(it.Doc())
//	}
//	if err := it.Err(); err != nil { ... }
type Iterator struct {
	br   *bufio.Reader
	cfg  IteratorConfig
	doc  Document
	st   IteratorStats
	err  error
	buf  []byte
	done bool
}

// NewIterator returns an Iterator over r.
func NewIterator(r io.Reader, cfg IteratorConfig) *Iterator {
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = DefaultMaxLineBytes
	}
	return &Iterator{br: bufio.NewReaderSize(r, 64<<10), cfg: cfg}
}

// Next advances to the next document. It returns false at the end of the
// input or on a fatal error — check Err to tell the two apart.
func (it *Iterator) Next() bool {
	if it.done {
		return false
	}
	for {
		line, tooLong, rerr := it.readLine()
		atEOF := errors.Is(rerr, io.EOF)
		if rerr != nil && !atEOF {
			it.done = true
			it.err = &LineError{Line: it.st.Lines + 1, Err: rerr}
			return false
		}
		if tooLong {
			it.st.Lines++
			if !it.cfg.Lenient {
				it.done = true
				it.err = &LineError{Line: it.st.Lines, Err: bufio.ErrTooLong}
				return false
			}
			it.st.Oversized++
			if atEOF {
				it.done = true
				return false
			}
			continue
		}
		if len(line) == 0 {
			if atEOF {
				it.done = true
				return false
			}
			it.st.Lines++ // blank line
			continue
		}
		it.st.Lines++
		d, err := decodeLine(line)
		if err != nil {
			if !it.cfg.Lenient {
				it.done = true
				it.err = &LineError{Line: it.st.Lines, Err: err}
				return false
			}
			it.st.Malformed++
			if atEOF {
				it.done = true
				return false
			}
			continue
		}
		it.doc = d
		it.st.Docs++
		if atEOF {
			it.done = true
		}
		return true
	}
}

// Doc returns the document decoded by the last successful Next.
func (it *Iterator) Doc() Document { return it.doc }

// Err returns the fatal error that stopped iteration, nil after a clean
// end of input.
func (it *Iterator) Err() error { return it.err }

// Stats returns the running consumption counters.
func (it *Iterator) Stats() IteratorStats { return it.st }

// readLine reads one physical line, stripping the trailing newline (and a
// preceding carriage return). A line that fits the bufio buffer is returned
// in place — valid until the next read — and only a longer one is assembled
// in it.buf. A line longer than MaxLineBytes is consumed to its end —
// holding at most MaxLineBytes plus one bufio buffer in memory — and
// reported as tooLong. rerr is io.EOF on an unterminated final line or when
// the input is exhausted.
func (it *Iterator) readLine() (line []byte, tooLong bool, rerr error) {
	frag, err := it.br.ReadSlice('\n')
	buf := it.buf[:0]
	for errors.Is(err, bufio.ErrBufferFull) {
		buf = append(buf, frag...)
		if len(buf) > it.cfg.MaxLineBytes {
			derr := it.discardLine()
			it.buf = buf[:0]
			if errors.Is(derr, io.EOF) {
				derr = nil // the oversized line was the last one
			}
			return nil, true, derr
		}
		frag, err = it.br.ReadSlice('\n')
	}
	if len(buf) > 0 {
		buf = append(buf, frag...)
		it.buf, frag = buf, buf
	}
	line = trimEOL(frag)
	if len(line) > it.cfg.MaxLineBytes {
		return nil, true, err
	}
	return line, false, err
}

// discardLine consumes input up to and including the next newline.
func (it *Iterator) discardLine() error {
	for {
		_, err := it.br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		return err
	}
}

// trimEOL strips one trailing "\n" or "\r\n".
func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
		if n := len(b); n > 0 && b[n-1] == '\r' {
			b = b[:n-1]
		}
	}
	return b
}
