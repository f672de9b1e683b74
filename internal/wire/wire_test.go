package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/evidence"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/stats"
	"repro/internal/wire/framing"
)

// randomStore builds a store with pseudo-random contents, deterministic
// in seed. Properties reuse a small pool so duplicate (entity, property)
// keys accumulate, as they do in a real run.
func randomStore(seed uint64, entries int) *evidence.Store {
	rng := stats.NewRNG(seed)
	props := []string{"big", "cute", "dangerous", "beautiful", "calm", "famous", ""}
	s, l := evidence.NewStore(), evidence.NewLocal()
	for i := 0; i < entries; i++ {
		st := extract.Statement{
			Entity:   kb.EntityID(rng.Uint64() % 64),
			Property: props[rng.Uint64()%uint64(len(props))],
			Polarity: extract.Positive,
		}
		if rng.Uint64()%3 == 0 {
			st.Polarity = extract.Negative
		}
		l.Add(st)
	}
	l.FlushTo(s)
	return s
}

func sameSnapshot(t *testing.T, want, got *evidence.Store) {
	t.Helper()
	ws, gs := want.Snapshot(), got.Snapshot()
	if len(ws) != len(gs) {
		t.Fatalf("snapshot length: want %d, got %d", len(ws), len(gs))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("snapshot entry %d: want %+v, got %+v", i, ws[i], gs[i])
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, entries := range []int{0, 1, 7, 500} {
			s := randomStore(seed, entries)
			var buf bytes.Buffer
			wrote, err := EncodeStore(&buf, s)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if wrote != int64(buf.Len()) {
				t.Fatalf("reported %d written bytes, buffer has %d", wrote, buf.Len())
			}
			dec, read, err := DecodeStore(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if read != wrote {
				t.Fatalf("decode consumed %d bytes, encode wrote %d", read, wrote)
			}
			sameSnapshot(t, s, dec)
		}
	}
}

// TestEncodeDeterministic pins that two stores with equal content encode
// to identical bytes regardless of insertion order — the property that
// makes coordinator-side byte comparisons meaningful.
func TestEncodeDeterministic(t *testing.T) {
	a := evidence.NewStore()
	b := evidence.NewStore()
	keys := []evidence.Key{
		{Entity: 3, Property: "big"},
		{Entity: 1, Property: "cute"},
		{Entity: 3, Property: "calm"},
	}
	for _, k := range keys {
		a.AddCounts(k, evidence.Counts{Pos: 2, Neg: 1})
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.AddCounts(keys[i], evidence.Counts{Pos: 2, Neg: 1})
	}
	var ab, bb bytes.Buffer
	if _, err := EncodeStore(&ab, a); err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeStore(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("equal stores encoded to different bytes")
	}
}

// TestConcatenatedFramesEqualMerge is the shard-invariance property one
// level down: k shard frames written back to back decode, one DecodeStore
// per frame, to stores whose Merge equals the Merge of the shards.
func TestConcatenatedFramesEqualMerge(t *testing.T) {
	shards := []*evidence.Store{
		randomStore(10, 200), randomStore(11, 50), randomStore(12, 0), randomStore(13, 321),
	}
	var concat bytes.Buffer
	merged := evidence.NewStore()
	for _, s := range shards {
		if _, err := EncodeStore(&concat, s); err != nil {
			t.Fatal(err)
		}
		merged.Merge(s)
	}
	dec := evidence.NewStore()
	for range shards {
		s, _, err := DecodeStore(&concat)
		if err != nil {
			t.Fatalf("decode concatenated: %v", err)
		}
		dec.Merge(s)
	}
	if _, _, err := DecodeStore(&concat); err != io.EOF {
		t.Fatalf("after the last frame: got %v, want io.EOF", err)
	}
	sameSnapshot(t, merged, dec)
}

func TestDecodeRejects(t *testing.T) {
	var good bytes.Buffer
	if _, err := EncodeStore(&good, randomStore(1, 40)); err != nil {
		t.Fatal(err)
	}
	frame := good.Bytes()

	// Every rejection names this layer: framing's errors already read
	// "wire: ", and DecodeStore passes them through.
	corrupt := func(mutate func(b []byte) []byte) error {
		b := mutate(append([]byte(nil), frame...))
		_, _, err := DecodeStore(bytes.NewReader(b))
		if err != nil && !strings.HasPrefix(err.Error(), "wire: ") {
			t.Errorf("err = %v, want prefix %q", err, "wire: ")
		}
		return err
	}

	if err := corrupt(func(b []byte) []byte { b[0] = 'X'; return b }); !errors.Is(err, framing.ErrBadMagic) {
		t.Errorf("bad magic: got %v, want framing.ErrBadMagic", err)
	}
	if err := corrupt(func(b []byte) []byte { b[4] = 99; return b }); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: got %v", err)
	}
	if err := corrupt(func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }); !errors.Is(err, framing.ErrChecksum) {
		t.Errorf("flipped body byte: got %v, want framing.ErrChecksum", err)
	}
	if err := corrupt(func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }); !errors.Is(err, framing.ErrChecksum) {
		t.Errorf("flipped checksum byte: got %v, want framing.ErrChecksum", err)
	}
	if err := corrupt(func(b []byte) []byte { return b[:len(b)-9] }); err == nil {
		t.Error("truncated frame decoded without error")
	}
	if _, _, err := DecodeStore(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
}

// TestForgedLengthBounded proves a forged multi-gigabyte length fails
// after a bounded allocation: the frame declares framing.MaxFrameBytes but
// carries almost no data, and the decode must error out (truncated body)
// rather than allocate the declared size up front.
func TestForgedLengthBounded(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(StoreMagic)
	buf.WriteByte(framing.Version)
	buf.Write(binary.AppendUvarint(nil, framing.MaxFrameBytes))
	buf.WriteString("short")
	_, _, err := DecodeStore(&buf)
	if err == nil {
		t.Fatal("forged length decoded without error")
	}

	// Over the limit: rejected before any body allocation.
	buf.Reset()
	buf.WriteString(StoreMagic)
	buf.WriteByte(framing.Version)
	buf.Write(binary.AppendUvarint(nil, uint64(framing.MaxFrameBytes)+1))
	_, _, err = DecodeStore(&buf)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("over-limit length: got %v", err)
	}
}

// TestForgedEntryCountRejected: a tiny body cannot claim millions of
// entries.
func TestForgedEntryCountRejected(t *testing.T) {
	e := framing.NewEncoder(16)
	e.Uvarint(1 << 40) // entry count far beyond the body's capacity
	var buf bytes.Buffer
	if _, err := framing.WriteFrame(&buf, StoreMagic, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	_, _, err := DecodeStore(&buf)
	if err == nil || !strings.Contains(err.Error(), "entry count") {
		t.Fatalf("forged entry count: got %v", err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	e := framing.NewEncoder(16)
	e.Uvarint(0) // zero entries
	e.Uvarint(7) // trailing garbage
	var buf bytes.Buffer
	if _, err := framing.WriteFrame(&buf, StoreMagic, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	_, _, err := DecodeStore(&buf)
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: got %v", err)
	}
}

func TestDecoderPrimitives(t *testing.T) {
	e := framing.NewEncoder(0)
	e.Uvarint(0)
	e.Uvarint(1<<63 + 5)
	e.String("hello")
	e.String("")
	d := framing.NewDecoder(e.Bytes())
	if v := d.Uvarint(); v != 0 {
		t.Errorf("uvarint: got %d, want 0", v)
	}
	if v := d.Uvarint(); v != 1<<63+5 {
		t.Errorf("uvarint: got %d", v)
	}
	if s := d.String(); s != "hello" {
		t.Errorf("string: got %q", s)
	}
	if s := d.String(); s != "" {
		t.Errorf("string: got %q, want empty", s)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Errorf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
	// Reading past the end sticks an error and keeps returning zeros.
	if v := d.Uvarint(); v != 0 || d.Err() == nil {
		t.Errorf("read past end: v=%d err=%v", v, d.Err())
	}
	if s := d.String(); s != "" {
		t.Errorf("string after error: %q", s)
	}
}

func TestStringBounds(t *testing.T) {
	// Length prefix larger than the remaining body.
	d := framing.NewDecoder(binary.AppendUvarint(nil, 100))
	if s := d.String(); s != "" || d.Err() == nil {
		t.Errorf("oversized string: s=%q err=%v", s, d.Err())
	}
	// Length prefix over the absolute cap.
	d = framing.NewDecoder(binary.AppendUvarint(nil, framing.MaxStringLen+1))
	if s := d.String(); s != "" || d.Err() == nil || !strings.Contains(d.Err().Error(), "limit") {
		t.Errorf("over-cap string: s=%q err=%v", s, d.Err())
	}
}

func TestWriteFrameBadMagic(t *testing.T) {
	if _, err := framing.WriteFrame(io.Discard, "TOOLONG", nil); err == nil {
		t.Fatal("5-byte magic accepted")
	}
}
