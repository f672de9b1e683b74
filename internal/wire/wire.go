// Package wire is the binary wire format of an evidence.Store snapshot: a
// compact, length-prefixed, checksummed frame. The primitives under it
// (varint encoder/decoder, framed payloads, the format limits and
// sentinel errors) live in the dependency-free subpackage framing, which
// the coordinator/worker protocol of internal/dist and the telemetry
// codec of internal/obs build their own messages from.
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
// allocation, the declared body length is capped (framing.MaxFrameBytes)
// and read through an allocation-bounded loop so a forged header cannot cost
// gigabytes, the checksum is verified before any entry is parsed, and
// counter values must fit in int64. Arbitrary input bytes therefore fail cleanly with an
// error — never a panic, never an over-allocation. FuzzWireDecode holds
// the package to that contract.
package wire

import (
	"fmt"
	"io"
	"math"

	"repro/internal/evidence"
	"repro/internal/kb"
	"repro/internal/wire/framing"
)

// StoreMagic marks an evidence-store snapshot frame.
const StoreMagic = "SVWS"

// --- evidence store codec --------------------------------------------------

// appendStore appends the body encoding of the store's snapshot: entry
// count, then ⟨entity, property, pos, neg⟩ per entry in snapshot order.
// Counters are encoded as unsigned varints; the Store never holds
// negative counts.
func appendStore(e *framing.Encoder, s *evidence.Store) {
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
	e := framing.NewEncoder(16 + 16*s.Len())
	appendStore(e, s)
	return framing.WriteFrame(w, StoreMagic, e.Bytes())
}

// decodeStoreBody parses a store frame body into a fresh store.
// Duplicate keys merge additively (encode never emits them, but decode
// accepts any well-formed body).
func decodeStoreBody(body []byte) (*evidence.Store, error) {
	d := framing.NewDecoder(body)
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
// the bytes consumed. Frame errors are framing's own: io.EOF bare when the
// stream ends cleanly before the frame, so callers can iterate frames.
func DecodeStore(r io.Reader) (*evidence.Store, int64, error) {
	body, n, frameErr := framing.ReadFrame(r, StoreMagic)
	if frameErr != nil {
		return nil, n, frameErr //lint:allow errflow framing is this format's lower half: its errors already read "wire: …" and its bare io.EOF is the contract
	}
	s, err := decodeStoreBody(body)
	return s, n, err
}
