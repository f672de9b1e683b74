// Package framing is the dependency-free lower half of the wire format:
// the varint body encoder/decoder and the framed-payload reader/writer
// (magic + version + length + body + FNV-1a checksum). Package wire
// layers the evidence-store codec on top and package dist its job, result
// and heartbeat frames; package obs builds its telemetry frame codec on
// framing too, so the observability layer never imports the evidence
// graph (which imports obs back — the split exists to break that cycle).
// Error strings keep the "wire:" prefix: framing is an internal detail of
// the wire format, not a separate protocol.
package framing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
)

// Format limits. They bound what a decoder will allocate on behalf of a
// frame before its content has proven itself.
const (
	// Version is the wire-format version emitted by this package.
	Version = 1
	// MaxFrameBytes caps one frame body (1 GiB). Evidence snapshots are
	// compact — the paper's 40TB crawl reduced to counters — so a larger
	// declared length is corruption, not data.
	MaxFrameBytes = 1 << 30
	// MaxStringLen caps one length-prefixed string inside a body.
	MaxStringLen = 1 << 20
	// initialAlloc caps what a decoder allocates before the declared
	// length has been backed by actual bytes.
	initialAlloc = 1 << 20
)

// ErrBadMagic reports a frame whose magic does not match the expected
// frame type. Distinguished so protocol code can detect stream desync.
var ErrBadMagic = errors.New("wire: bad frame magic")

// ErrChecksum reports a frame whose body failed checksum validation.
var ErrChecksum = errors.New("wire: frame checksum mismatch")

// --- body encoder ----------------------------------------------------------

// Encoder appends varint-encoded values to a byte slice — the body half
// of a frame. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with a pre-sized buffer.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Uvarint appends one unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends one signed varint (zigzag encoding).
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// String appends one length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes returns the encoded body. The slice aliases the encoder's
// buffer; it is valid until the next append.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded body length so far.
func (e *Encoder) Len() int { return len(e.buf) }

// --- body decoder ----------------------------------------------------------

// Decoder consumes varint-encoded values from a byte slice. The first
// error sticks: every later read returns zero values.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over body.
func NewDecoder(body []byte) *Decoder { return &Decoder{buf: body} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Uvarint consumes one unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint consumes one signed varint (zigzag encoding).
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// String consumes one length-prefixed string, bounds-checked against
// MaxStringLen and the remaining body.
func (d *Decoder) String() string { return d.StringMax(MaxStringLen) }

// StringMax consumes one length-prefixed string under an explicit length
// cap, for fields (document text) whose legitimate size exceeds
// MaxStringLen.
func (d *Decoder) StringMax(max int) string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(max) {
		d.fail("string length %d exceeds limit %d", n, max)
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds remaining body %d", n, d.Remaining())
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// --- framing ---------------------------------------------------------------

// WriteFrame writes one framed body: magic, version byte, uvarint length,
// body, FNV-1a checksum. Returns the total bytes written.
func WriteFrame(w io.Writer, magic string, body []byte) (int64, error) {
	if len(magic) != 4 {
		return 0, fmt.Errorf("wire: frame magic %q must be 4 bytes", magic)
	}
	var hdr [4 + 1 + binary.MaxVarintLen64]byte
	n := copy(hdr[:], magic)
	hdr[n] = Version
	n++
	n += binary.PutUvarint(hdr[n:], uint64(len(body)))
	written := int64(0)
	for _, chunk := range [][]byte{hdr[:n], body, checksum(body)} {
		m, err := w.Write(chunk)
		written += int64(m)
		if err != nil {
			return written, fmt.Errorf("wire: write frame: %w", err)
		}
	}
	return written, nil
}

// checksum returns the 8-byte little-endian FNV-1a digest of body.
func checksum(body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	return sum[:]
}

// ReadFrame reads one framed body written by WriteFrame, validating the
// magic, version, declared length, and checksum. Returns the body and the
// total bytes consumed. io.EOF is returned unwrapped when the stream ends
// cleanly before the first magic byte, so callers can iterate frames.
//
// Allocation is bounded: the body buffer starts at min(length,
// initialAlloc) and grows only as actual bytes arrive, so a forged
// multi-gigabyte length costs a bounded allocation before the truncated
// read fails.
func ReadFrame(r io.Reader, magic string) (body []byte, n int64, err error) {
	_, body, n, err = readFrame(r, magic)
	return body, n, err
}

// ReadFrameAny reads one frame of any type and returns its magic
// alongside the body — the demultiplexing primitive for streams that
// interleave frame types (a worker's heartbeat frames ahead of its
// result frames). Validation is identical to ReadFrame except that any
// 4-byte magic is accepted.
func ReadFrameAny(r io.Reader) (magic string, body []byte, n int64, err error) {
	return readFrame(r, "")
}

// readFrame is the shared implementation: want == "" accepts any magic.
// A magic mismatch fails before the length is trusted, so a desynced
// stream is reported as ErrBadMagic rather than a garbage length.
func readFrame(r io.Reader, want string) (magic string, body []byte, n int64, err error) {
	var hdr [5]byte
	m, err := io.ReadFull(r, hdr[:])
	n = int64(m)
	if err != nil {
		if errors.Is(err, io.EOF) && m == 0 {
			// Bare io.EOF is the documented clean end-of-stream: callers
			// iterate frames by matching it. (errflow binds to the exported
			// wrappers, which pass it through untouched.)
			return "", nil, 0, io.EOF
		}
		return "", nil, n, fmt.Errorf("wire: read frame header: %w", err)
	}
	magic = string(hdr[:4])
	if want != "" && magic != want {
		return magic, nil, n, fmt.Errorf("%w: got %q, want %q", ErrBadMagic, hdr[:4], want)
	}
	if hdr[4] != Version {
		return magic, nil, n, fmt.Errorf("wire: unsupported frame version %d (want %d)", hdr[4], Version)
	}
	length, m2, err := readUvarint(r)
	n += int64(m2)
	if err != nil {
		return magic, nil, n, fmt.Errorf("wire: read frame length: %w", midFrame(err))
	}
	if length > MaxFrameBytes {
		return magic, nil, n, fmt.Errorf("wire: frame length %d exceeds limit %d", length, MaxFrameBytes)
	}
	body = make([]byte, 0, min(length, initialAlloc))
	for uint64(len(body)) < length {
		chunk := min(length-uint64(len(body)), initialAlloc)
		start := len(body)
		body = append(body, make([]byte, chunk)...)
		m, err := io.ReadFull(r, body[start:])
		n += int64(m)
		if err != nil {
			return magic, nil, n, fmt.Errorf("wire: read frame body: %w", midFrame(err))
		}
	}
	var sum [8]byte
	m, err = io.ReadFull(r, sum[:])
	n += int64(m)
	if err != nil {
		return magic, nil, n, fmt.Errorf("wire: read frame checksum: %w", midFrame(err))
	}
	h := fnv.New64a()
	h.Write(body)
	if binary.LittleEndian.Uint64(sum[:]) != h.Sum64() {
		return magic, nil, n, ErrChecksum
	}
	return magic, body, n, nil
}

// midFrame turns the io.EOF of a read that got no bytes into
// io.ErrUnexpectedEOF: past the header a frame that stops is torn, and
// must not match io.EOF, the clean end of a frame stream.
func midFrame(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readUvarint reads one varint from r byte by byte, counting consumed
// bytes (bufio would read ahead and desync the frame stream).
func readUvarint(r io.Reader) (uint64, int, error) {
	var v uint64
	var b [1]byte
	for shift, read := 0, 0; ; shift += 7 {
		if shift >= 64 {
			return 0, read, errors.New("varint overflows uint64")
		}
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, read, err
		}
		read++
		v |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			return v, read, nil
		}
	}
}
