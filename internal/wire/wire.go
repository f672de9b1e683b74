// Package wire is the binary wire format of the distributed miner: a
// compact, length-prefixed, checksummed frame codec for evidence.Store
// snapshots and the low-level primitives (varint encoder/decoder, framed
// payloads) the coordinator/worker protocol of internal/dist builds its
// messages from. The primitives live in the dependency-free subpackage
// framing (so internal/obs can build its telemetry codec on them without
// importing the evidence graph) and are re-exported here — wire remains
// the one name protocol code imports.
//
// Frame layout (all integers unsigned varints unless noted):
//
//	magic    4 bytes, per frame type ("SVWS" for a store snapshot)
//	version  1 byte (currently 1)
//	length   uvarint, byte length of body
//	body     length bytes
//	checksum 8 bytes little-endian, FNV-1a over body
//
// A store body is one uvarint entry count followed by that many entries,
// each ⟨entity, propertyLen, propertyBytes, pos, neg⟩, emitted in the
// deterministic Snapshot order (entity, then property) so encoding the
// same store always yields the same bytes.
//
// Decoding is validated: every length and count is bounds-checked before
// allocation, the declared body length is capped (MaxFrameBytes) and read
// through an allocation-bounded loop so a forged header cannot cost
// gigabytes, the checksum is verified before any entry is parsed, and
// counter values must fit in int64. Arbitrary input bytes therefore fail cleanly with an
// error — never a panic, never an over-allocation. FuzzWireDecode holds
// the package to that contract.
package wire

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/evidence"
	"repro/internal/kb"
	"repro/internal/wire/framing"
)

// Format limits, re-exported from framing. They bound what a decoder
// will allocate on behalf of a frame before its content has proven
// itself.
const (
	// Version is the wire-format version emitted by this package.
	Version = framing.Version
	// MaxFrameBytes caps one frame body (1 GiB). Evidence snapshots are
	// compact — the paper's 40TB crawl reduced to counters — so a larger
	// declared length is corruption, not data.
	MaxFrameBytes = framing.MaxFrameBytes
	// MaxStringLen caps one length-prefixed string inside a body.
	MaxStringLen = framing.MaxStringLen
)

// StoreMagic marks an evidence-store snapshot frame.
const StoreMagic = "SVWS"

// ErrBadMagic reports a frame whose magic does not match the expected
// frame type. Distinguished so protocol code can detect stream desync.
var ErrBadMagic = framing.ErrBadMagic

// ErrChecksum reports a frame whose body failed checksum validation.
var ErrChecksum = framing.ErrChecksum

// Encoder appends varint-encoded values to a byte slice — the body half
// of a frame. The zero value is ready to use.
type Encoder = framing.Encoder

// Decoder consumes varint-encoded values from a byte slice. The first
// error sticks: every later read returns zero values.
type Decoder = framing.Decoder

// NewEncoder returns an encoder with a pre-sized buffer.
func NewEncoder(sizeHint int) *Encoder { return framing.NewEncoder(sizeHint) }

// NewDecoder returns a decoder over body.
func NewDecoder(body []byte) *Decoder { return framing.NewDecoder(body) }

// WriteFrame writes one framed body: magic, version byte, uvarint length,
// body, FNV-1a checksum. Returns the total bytes written.
func WriteFrame(w io.Writer, magic string, body []byte) (int64, error) {
	return framing.WriteFrame(w, magic, body)
}

// ReadFrame reads one framed body written by WriteFrame, validating the
// magic, version, declared length, and checksum. Returns the body and the
// total bytes consumed. io.EOF is returned unwrapped when the stream ends
// cleanly before the first magic byte, so callers can iterate frames.
func ReadFrame(r io.Reader, magic string) (body []byte, n int64, err error) {
	return framing.ReadFrame(r, magic)
}

// ReadFrameAny reads one frame of any type and returns its magic
// alongside the body — the demultiplexing primitive for streams that
// interleave frame types (a worker's heartbeats ahead of its result).
func ReadFrameAny(r io.Reader) (magic string, body []byte, n int64, err error) {
	return framing.ReadFrameAny(r)
}

// --- evidence store codec --------------------------------------------------

// AppendStore appends the body encoding of the store's snapshot: entry
// count, then ⟨entity, property, pos, neg⟩ per entry in snapshot order.
// Counters are encoded as unsigned varints; the Store never holds
// negative counts.
func AppendStore(e *Encoder, s *evidence.Store) {
	snap := s.Snapshot()
	e.Uvarint(uint64(len(snap)))
	for _, entry := range snap {
		e.Uvarint(uint64(entry.Entity))
		e.String(entry.Property)
		e.Uvarint(uint64(entry.Pos))
		e.Uvarint(uint64(entry.Neg))
	}
}

// EncodeStore writes one framed store snapshot and returns the bytes
// written. Encoding the same store content always produces the same
// bytes: the body iterates the deterministic snapshot order.
func EncodeStore(w io.Writer, s *evidence.Store) (int64, error) {
	e := NewEncoder(16 + 16*s.Len())
	AppendStore(e, s)
	return WriteFrame(w, StoreMagic, e.Bytes())
}

// DecodeStoreBody parses a store frame body into a fresh store.
// Duplicate keys merge additively (encode never emits them, but decode
// accepts any well-formed body).
func DecodeStoreBody(body []byte) (*evidence.Store, error) {
	d := NewDecoder(body)
	count := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wire: store entry count: %w", err)
	}
	// Each entry is at least 4 bytes (three varints and an empty string's
	// length prefix), so the remaining body bounds the plausible count.
	if count > uint64(d.Remaining())/4+1 {
		return nil, fmt.Errorf("wire: entry count %d exceeds body capacity %d", count, d.Remaining())
	}
	s := evidence.NewStore()
	for i := uint64(0); i < count; i++ {
		ent := d.Uvarint()
		prop := d.String()
		pos := d.Uvarint()
		neg := d.Uvarint()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("wire: store entry %d: %w", i, err)
		}
		if ent > math.MaxInt64 || pos > math.MaxInt64 || neg > math.MaxInt64 {
			return nil, fmt.Errorf("wire: store entry %d: value overflows int64", i)
		}
		s.AddCounts(evidence.Key{Entity: kb.EntityID(ent), Property: prop},
			evidence.Counts{Pos: int64(pos), Neg: int64(neg)})
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %d store entries", d.Remaining(), count)
	}
	return s, nil
}

// DecodeStore reads one framed store snapshot and returns the store and
// the bytes consumed.
func DecodeStore(r io.Reader) (*evidence.Store, int64, error) {
	body, n, err := ReadFrame(r, StoreMagic)
	if err != nil {
		return nil, n, err
	}
	s, err := DecodeStoreBody(body)
	return s, n, err
}

// DecodeStores reads concatenated store frames until EOF and merges them
// into one store — the reduce half of the shard-invariance contract:
// decoding k concatenated shard frames equals Merge over the k
// individually decoded stores, which equals the store of the unsharded
// run. Returns the merged store and the total bytes consumed.
func DecodeStores(r io.Reader) (*evidence.Store, int64, error) {
	merged := evidence.NewStore()
	var total int64
	for {
		s, n, err := DecodeStore(r)
		total += n
		if errors.Is(err, io.EOF) {
			return merged, total, nil
		}
		if err != nil {
			return nil, total, err
		}
		merged.Merge(s)
	}
}
