package obs

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wire/framing"
)

// sampleTelemetry builds a representative frame: counters, a gauge, a
// histogram, and spans with args.
func sampleTelemetry() *Telemetry {
	clock := &ManualClock{}
	o := &RunObs{Metrics: NewRegistry(), Tracer: NewTracer(clock), Clock: clock}
	o.Metrics.Counter("surveyor_documents_total", "docs").Add(41)
	o.Metrics.Gauge("surveyor_distinct_pairs", "pairs").Set(7)
	h := o.Metrics.Histogram("surveyor_doc_sentences", "sentences", []float64{1, 4, 16})
	h.Observe(2)
	h.Observe(8)
	h.Observe(100)

	st := o.BeginShardTelemetry()
	clock.Advance(3 * time.Millisecond)
	sp := o.Phase("extract")
	clock.Advance(5 * time.Millisecond)
	sp.End()
	w := o.Worker(0)
	w.DocStart()
	clock.Advance(time.Millisecond)
	w.DocEnd(3, 12, 4)
	w.Close("extract")
	clock.Advance(time.Millisecond)
	return st.Export()
}

func TestTelemetryRoundTrip(t *testing.T) {
	want := sampleTelemetry()
	if len(want.Metrics) == 0 || len(want.Spans) == 0 {
		t.Fatalf("fixture captured nothing: %d metrics, %d spans", len(want.Metrics), len(want.Spans))
	}
	if want.Anchor.Captured <= want.Anchor.JobReceived {
		t.Fatalf("anchor pair not ordered: %+v", want.Anchor)
	}

	var buf bytes.Buffer
	n, err := EncodeTelemetry(&buf, want)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("EncodeTelemetry reported %d bytes, wrote %d", n, buf.Len())
	}
	got, rn, err := DecodeTelemetry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rn != n {
		t.Fatalf("decode consumed %d bytes, encode wrote %d", rn, n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestTelemetryEncodingDeterministic(t *testing.T) {
	tel := sampleTelemetry()
	var a, b bytes.Buffer
	if _, err := EncodeTelemetry(&a, tel); err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeTelemetry(&b, tel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("encoding the same telemetry twice produced different bytes")
	}
}

// TestTelemetryVersionGate: a frame with an unknown telemetry version is
// rejected even when the wire envelope is valid.
func TestTelemetryVersionGate(t *testing.T) {
	e := framing.NewEncoder(16)
	e.Uvarint(TelemetryVersion + 1)
	e.Uvarint(0)
	e.Uvarint(0)
	e.Uvarint(0)
	e.Uvarint(0)
	var buf bytes.Buffer
	if _, err := framing.WriteFrame(&buf, TelemetryMagic, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	_, _, err := DecodeTelemetry(&buf)
	if err == nil || !strings.Contains(err.Error(), "unsupported telemetry version") {
		t.Fatalf("err = %v, want version rejection", err)
	}
}

// encodeBody frames a raw telemetry body for decode-rejection tests.
func encodeBody(t *testing.T, build func(e *framing.Encoder)) []byte {
	t.Helper()
	e := framing.NewEncoder(64)
	build(e)
	var buf bytes.Buffer
	if _, err := framing.WriteFrame(&buf, TelemetryMagic, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTelemetryDecodeRejections(t *testing.T) {
	header := func(e *framing.Encoder) {
		e.Uvarint(TelemetryVersion)
		e.Uvarint(0) // jobReceived
		e.Uvarint(0) // captured
	}
	histogram := func(buckets uint64) func(e *framing.Encoder) {
		return func(e *framing.Encoder) {
			header(e)
			e.Uvarint(1)
			e.Uvarint(uint64(KindHistogram))
			e.String("h")
			e.String("")
			e.Uvarint(1)                   // count
			e.Uvarint(math.Float64bits(1)) // sum
			e.Uvarint(buckets)
		}
	}
	cases := []struct {
		name string
		body func(e *framing.Encoder)
		want string
	}{
		{"metric count over limit", func(e *framing.Encoder) {
			header(e)
			e.Uvarint(maxTelemetryMetrics + 1)
		}, "exceeds limit"},
		{"metric count over capacity", func(e *framing.Encoder) {
			header(e)
			e.Uvarint(1 << 10)
		}, "exceeds body capacity"},
		{"span count over limit", func(e *framing.Encoder) {
			header(e)
			e.Uvarint(0)
			e.Uvarint(maxTelemetrySpans + 1)
		}, "exceeds limit"},
		{"span count over capacity", func(e *framing.Encoder) {
			header(e)
			e.Uvarint(0)
			e.Uvarint(1 << 10)
		}, "span count 1024 exceeds body capacity"},
		{"span arg count over limit", func(e *framing.Encoder) {
			header(e)
			e.Uvarint(0)
			e.Uvarint(1)
			e.String("s")
			e.String("c")
			e.Uvarint(0) // tid
			e.Uvarint(0) // start
			e.Uvarint(0) // dur
			e.Uvarint(maxSpanArgs + 1)
		}, "span arg count 65 exceeds limit"},
		{"histogram bucket count zero", histogram(0), "histogram bucket count 0 outside"},
		{"histogram bucket count over limit", histogram(maxTelemetryBuckets + 1), "histogram bucket count 513 outside"},
		{"histogram bucket count over capacity", histogram(maxTelemetryBuckets), "bucket count 512 exceeds body capacity"},
		{"unknown metric kind", func(e *framing.Encoder) {
			header(e)
			e.Uvarint(1)
			e.Uvarint(99)
			e.String("m")
			e.String("")
			e.Uvarint(0)
			e.Uvarint(0)
		}, "unknown metric kind"},
		{"implausible span tid", func(e *framing.Encoder) {
			header(e)
			e.Uvarint(0)
			e.Uvarint(1)
			e.String("s")
			e.String("c")
			e.Uvarint(math.MaxUint64) // tid
			e.Uvarint(0)
			e.Uvarint(0)
			e.Uvarint(0)
		}, "implausible tid"},
		{"trailing bytes", func(e *framing.Encoder) {
			header(e)
			e.Uvarint(0)
			e.Uvarint(0)
			e.Uvarint(7)
		}, "trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := encodeBody(t, tc.body)
			_, _, err := DecodeTelemetry(bytes.NewReader(frame))
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "obs: ") {
				t.Fatalf("err = %v, want prefix %q and substring %q", err, "obs: ", tc.want)
			}
		})
	}
}

// TestTelemetryTruncated: every prefix of a valid frame fails cleanly,
// the empty one included (a frame the job asked for that never came),
// never panics.
func TestTelemetryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := EncodeTelemetry(&buf, sampleTelemetry()); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for cut := 0; cut < len(frame); cut++ {
		_, _, err := DecodeTelemetry(bytes.NewReader(frame[:cut]))
		if err == nil || !strings.HasPrefix(err.Error(), "obs: ") {
			t.Fatalf("truncation at %d/%d: err = %v, want prefix %q", cut, len(frame), err, "obs: ")
		}
		if cut == 0 && (!errors.Is(err, io.EOF) || err == io.EOF) {
			t.Fatalf("empty stream: err = %v, want a wrapped io.EOF", err)
		}
	}
}

// FuzzTelemetryDecode holds the telemetry codec to the validated-decode
// contract — arbitrary bytes must fail cleanly (or round-trip exactly),
// never panic, never over-allocate — and federation to all or nothing:
// every decoded frame is handed to a fresh coordinator, which must not
// panic, and a frame it rejects must leave no fleet series behind.
func FuzzTelemetryDecode(f *testing.F) {
	var seed bytes.Buffer
	if _, err := EncodeTelemetry(&seed, sampleTelemetry()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("SVTM"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tel, n, err := DecodeTelemetry(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n > int64(len(data)) {
			t.Fatalf("decode consumed %d bytes of %d", n, len(data))
		}
		// A successful decode must re-encode to a stable frame: encode →
		// decode → encode yields identical bytes. (Byte comparison rather
		// than DeepEqual so NaN-valued metrics from fuzzed bit patterns
		// compare by representation.)
		var buf bytes.Buffer
		if _, err := EncodeTelemetry(&buf, tel); err != nil {
			t.Fatalf("re-encode of decoded telemetry failed: %v", err)
		}
		again, _, err := DecodeTelemetry(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		var buf2 bytes.Buffer
		if _, err := EncodeTelemetry(&buf2, again); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("decode → encode → decode is not byte-stable")
		}

		o := New()
		o.StartFleet(1).ShardTelemetry(0, tel, nil)
		if note := o.Cluster.Snapshot().Shards[0].Telemetry; strings.HasPrefix(note, "rejected") {
			for _, m := range o.Metrics.Snapshot() {
				if strings.HasPrefix(m.Name, fleetPrefix) {
					t.Fatalf("%s: rejected frame left series %s", note, m.Name)
				}
			}
		}
	})
}
