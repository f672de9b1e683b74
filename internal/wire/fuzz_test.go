package wire

import (
	"bytes"
	"testing"

	"repro/internal/wire/framing"
)

// FuzzWireDecode holds the decoder to the validated-decode contract over
// arbitrary bytes: never panic, never allocate past the declared bounds,
// and stay round-trip consistent — whatever decodes successfully must
// re-encode and decode back to an identical snapshot.
func FuzzWireDecode(f *testing.F) {
	// Seeds: a healthy frame, concatenated frames, an empty store, and a
	// few deliberately broken prefixes.
	var healthy, concat, empty bytes.Buffer
	if _, err := EncodeStore(&healthy, randomStore(1, 64)); err != nil {
		f.Fatal(err)
	}
	if _, err := EncodeStore(&concat, randomStore(2, 32)); err != nil {
		f.Fatal(err)
	}
	concat.Write(healthy.Bytes())
	if _, err := EncodeStore(&empty, randomStore(0, 0)); err != nil {
		f.Fatal(err)
	}
	f.Add(healthy.Bytes())
	f.Add(concat.Bytes())
	f.Add(empty.Bytes())
	f.Add([]byte(StoreMagic))
	f.Add(append([]byte(StoreMagic), framing.Version, 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Single-frame decode must fail cleanly or produce a store that
		// round-trips bit-identically through a fresh encode.
		s, n, err := DecodeStore(bytes.NewReader(data))
		if err == nil {
			if n > int64(len(data)) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(data))
			}
			var re bytes.Buffer
			if _, err := EncodeStore(&re, s); err != nil {
				t.Fatalf("re-encode of decoded store: %v", err)
			}
			s2, _, err := DecodeStore(bytes.NewReader(re.Bytes()))
			if err != nil {
				t.Fatalf("decode of re-encode: %v", err)
			}
			sameSnapshot(t, s, s2)
		}
	})
}
