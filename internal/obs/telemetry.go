// Telemetry frames: the cross-process half of the observability layer.
// A distributed worker runs its own RunObs and, after the all-or-nothing
// shard commit, ships one compact "SVTM" frame — its full metric
// snapshot, its collected spans, and a pair of clock-alignment anchors —
// appended after the store frame of the shard result. The frame is
// optional and version-gated: a worker with no RunObs ships nothing, and
// the coordinator treats a clean EOF after the store frame as "telemetry
// absent", so old and new processes interoperate in both directions.
//
// Frame body layout (on the internal/wire primitives; all integers
// unsigned varints unless noted):
//
//	telemetryVersion  uvarint (currently 1; unknown versions are rejected)
//	anchorJobReceived uvarint, nanoseconds on the worker clock
//	anchorCaptured    uvarint, nanoseconds on the worker clock
//	metricCount       uvarint, then per metric:
//	    kind     uvarint (0 counter, 1 gauge, 2 histogram)
//	    name     string  ≤ maxTelemetryLabel
//	    help     string  ≤ maxTelemetryHelp
//	    counter/gauge: valueBits uvarint (IEEE 754 bits)
//	    histogram:     count uvarint, sumBits uvarint, buckets uvarint
//	                   (≤ maxTelemetryBuckets, last bound must be +Inf,
//	                   bounds strictly ascending), then per bucket
//	                   ⟨boundBits uvarint, count uvarint⟩
//	spanCount         uvarint, then per span:
//	    name, cat  string ≤ maxTelemetryLabel
//	    tid        uvarint
//	    start, dur uvarint, nanoseconds on the worker clock
//	    argCount   uvarint ≤ maxSpanArgs, then per arg
//	               ⟨key string ≤ maxTelemetryLabel, value varint⟩
//
// Decoding follows the validated-decode discipline of the wire and dist
// codecs: every count is bounds-checked against a named limit and against
// the remaining body capacity before anything is allocated, string
// lengths are capped, and arbitrary bytes fail cleanly with an error —
// never a panic, never an unbounded allocation. FuzzTelemetryDecode holds
// the codec to that contract.
package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/wire/framing"
)

// TelemetryMagic marks a worker telemetry frame.
const TelemetryMagic = "SVTM"

// TelemetryVersion is the telemetry body format version this package
// emits. It is gated separately from the wire frame version so the frame
// envelope and the telemetry payload can evolve independently.
const TelemetryVersion = 1

// Telemetry format limits: what a coordinator will allocate on behalf of
// one worker's frame before its content has proven itself.
const (
	// maxTelemetryMetrics caps the metric snapshot size. A worker registers
	// a few dozen series; thousands is corruption.
	maxTelemetryMetrics = 1 << 12
	// maxTelemetryBuckets caps one histogram's bucket count (including the
	// +Inf bucket).
	maxTelemetryBuckets = 1 << 9
	// maxTelemetrySpans caps the span list; workers cap their own buffers
	// at perWorkerSpanCap per worker thread, far below this.
	maxTelemetrySpans = 1 << 20
	// maxSpanArgs caps one span's annotation count.
	maxSpanArgs = 1 << 6
	// maxTelemetryLabel caps metric names, span names/categories, and arg
	// keys. maxTelemetryHelp caps metric help strings.
	maxTelemetryLabel = 1 << 10
	maxTelemetryHelp  = 1 << 12
)

// ClockAnchor is the pair of worker-clock readings that lets the
// coordinator align a worker's span timestamps with its own clock: the
// reading when the worker began serving its job, and the reading when the
// telemetry snapshot was captured (just before shipping). The coordinator
// pairs them with its own job-send and result-receive readings and
// estimates the clock offset as the difference of interval midpoints —
// the classic NTP correction:
//
//	offset = (coordSend+coordRecv)/2 − (JobReceived+Captured)/2
type ClockAnchor struct {
	JobReceived time.Duration
	Captured    time.Duration
}

// Telemetry is one worker's shipped observability state: the full metric
// snapshot, every collected span, and the clock anchors. It is passive
// data — the coordinator absorbs it through Cluster.ShardTelemetry.
type Telemetry struct {
	Anchor  ClockAnchor
	Metrics []Metric
	Spans   []SpanEvent
}

// ShardTelemetry accumulates one worker's run telemetry for export. It is
// created when the worker starts serving a job (anchoring the clock) and
// exported once, after the shard result is shipped.
type ShardTelemetry struct {
	obs         *RunObs
	jobReceived time.Duration
}

// BeginShardTelemetry anchors the start of one worker's shard service.
// Nil (inert) when o is nil — a silent worker ships no telemetry frame.
func (o *RunObs) BeginShardTelemetry() *ShardTelemetry {
	if o == nil {
		return nil
	}
	return &ShardTelemetry{obs: o, jobReceived: o.clock().Now()}
}

// Export captures the worker's telemetry: the metric snapshot, the
// collected spans, and the closing clock anchor. Returns nil on a nil
// receiver, which callers treat as "ship nothing".
func (st *ShardTelemetry) Export() *Telemetry {
	if st == nil {
		return nil
	}
	o := st.obs
	return &Telemetry{
		Anchor:  ClockAnchor{JobReceived: st.jobReceived, Captured: o.clock().Now()},
		Metrics: o.Metrics.Snapshot(),
		Spans:   o.Tracer.Events(),
	}
}

// EncodeTelemetry writes one framed telemetry snapshot and returns the
// bytes written. Encoding the same telemetry always produces the same
// bytes: the metric snapshot is name-sorted and span args are key-sorted.
func EncodeTelemetry(w io.Writer, t *Telemetry) (int64, error) {
	e := framing.NewEncoder(256 + 64*len(t.Metrics) + 64*len(t.Spans))
	e.Uvarint(TelemetryVersion)
	e.Uvarint(uint64(t.Anchor.JobReceived))
	e.Uvarint(uint64(t.Anchor.Captured))
	e.Uvarint(uint64(len(t.Metrics)))
	for i := range t.Metrics {
		m := &t.Metrics[i]
		e.Uvarint(uint64(m.Kind))
		e.String(m.Name)
		e.String(m.Help)
		switch m.Kind {
		case KindHistogram:
			e.Uvarint(uint64(m.Count))
			e.Uvarint(math.Float64bits(m.Sum))
			e.Uvarint(uint64(len(m.Buckets)))
			for _, b := range m.Buckets {
				e.Uvarint(math.Float64bits(float64(b.UpperBound)))
				e.Uvarint(uint64(b.Count))
			}
		default:
			e.Uvarint(math.Float64bits(m.Value))
		}
	}
	e.Uvarint(uint64(len(t.Spans)))
	for i := range t.Spans {
		s := &t.Spans[i]
		e.String(s.Name)
		e.String(s.Cat)
		e.Uvarint(uint64(s.Tid))
		e.Uvarint(uint64(s.Start))
		e.Uvarint(uint64(s.Dur))
		e.Uvarint(uint64(len(s.Args)))
		for _, a := range s.Args {
			e.String(a.Key)
			e.Varint(a.Value)
		}
	}
	n, err := framing.WriteFrame(w, TelemetryMagic, e.Bytes())
	if err != nil {
		return n, fmt.Errorf("obs: write telemetry frame: %w", err)
	}
	return n, nil
}

// DecodeTelemetry reads one framed telemetry snapshot and returns it with
// the bytes consumed. A clean EOF before the first byte is returned as an
// unwrapped io.EOF — the "telemetry absent" signal that keeps the frame
// optional: a coordinator probing after the store frame of an old or
// silent worker sees the stream end instead of an error.
func DecodeTelemetry(r io.Reader) (*Telemetry, int64, error) {
	body, n, err := framing.ReadFrame(r, TelemetryMagic)
	if err != nil {
		if errors.Is(err, io.EOF) && n == 0 {
			return nil, 0, io.EOF //lint:allow errflow documented clean-EOF contract: telemetry frames are optional
		}
		return nil, n, fmt.Errorf("obs: read telemetry frame: %w", err)
	}
	t, bodyErr := DecodeTelemetryBody(body)
	if bodyErr != nil {
		return nil, n, bodyErr
	}
	return t, n, nil
}

// DecodeTelemetryBody parses a telemetry frame body, validating every
// count, length, and histogram shape before allocating for it.
func DecodeTelemetryBody(body []byte) (*Telemetry, error) {
	d := framing.NewDecoder(body)
	version := d.Uvarint()
	jobReceived := d.Uvarint()
	captured := d.Uvarint()
	metricCount := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("obs: decode telemetry header: %w", err)
	}
	if version != TelemetryVersion {
		return nil, fmt.Errorf("obs: unsupported telemetry version %d (want %d)", version, TelemetryVersion)
	}
	if jobReceived > math.MaxInt64 || captured > math.MaxInt64 {
		return nil, fmt.Errorf("obs: implausible telemetry clock anchor")
	}
	if metricCount > maxTelemetryMetrics {
		return nil, fmt.Errorf("obs: metric count %d exceeds limit %d", metricCount, maxTelemetryMetrics)
	}
	// A metric is at least four bytes (kind, two length prefixes, a value
	// varint), so the body bounds the plausible count.
	if metricCount > uint64(d.Remaining())/4+1 {
		return nil, fmt.Errorf("obs: metric count %d exceeds body capacity %d", metricCount, d.Remaining())
	}
	t := &Telemetry{Anchor: ClockAnchor{
		JobReceived: time.Duration(jobReceived),
		Captured:    time.Duration(captured),
	}}
	if metricCount > 0 {
		t.Metrics = make([]Metric, 0, metricCount)
	}
	for i := uint64(0); i < metricCount; i++ {
		m, err := decodeMetric(d)
		if err != nil {
			return nil, fmt.Errorf("obs: telemetry metric %d: %w", i, err)
		}
		t.Metrics = append(t.Metrics, m)
	}
	spanCount := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("obs: decode telemetry span count: %w", err)
	}
	if spanCount > maxTelemetrySpans {
		return nil, fmt.Errorf("obs: span count %d exceeds limit %d", spanCount, maxTelemetrySpans)
	}
	// A span is at least six bytes (two length prefixes, four varints).
	if spanCount > uint64(d.Remaining())/6+1 {
		return nil, fmt.Errorf("obs: span count %d exceeds body capacity %d", spanCount, d.Remaining())
	}
	if spanCount > 0 {
		t.Spans = make([]SpanEvent, 0, spanCount)
	}
	for i := uint64(0); i < spanCount; i++ {
		s, err := decodeSpan(d)
		if err != nil {
			return nil, fmt.Errorf("obs: telemetry span %d: %w", i, err)
		}
		t.Spans = append(t.Spans, s)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("obs: %d trailing bytes in telemetry frame", d.Remaining())
	}
	return t, nil
}

// decodeMetric parses one metric record.
func decodeMetric(d *framing.Decoder) (Metric, error) {
	kind := d.Uvarint()
	name := d.StringMax(maxTelemetryLabel)
	help := d.StringMax(maxTelemetryHelp)
	if err := d.Err(); err != nil {
		return Metric{}, err
	}
	m := Metric{Name: name, Help: help}
	switch MetricKind(kind) {
	case KindCounter, KindGauge:
		m.Kind = MetricKind(kind)
		m.Value = math.Float64frombits(d.Uvarint())
		if err := d.Err(); err != nil {
			return Metric{}, err
		}
	case KindHistogram:
		m.Kind = KindHistogram
		count := d.Uvarint()
		m.Sum = math.Float64frombits(d.Uvarint())
		buckets := d.Uvarint()
		if err := d.Err(); err != nil {
			return Metric{}, err
		}
		if count > math.MaxInt64 {
			return Metric{}, fmt.Errorf("histogram count %d overflows int64", count)
		}
		if buckets == 0 || buckets > maxTelemetryBuckets {
			return Metric{}, fmt.Errorf("histogram bucket count %d outside [1, %d]", buckets, maxTelemetryBuckets)
		}
		// A bucket is at least two bytes (bound bits + count varints).
		if buckets > uint64(d.Remaining())/2+1 {
			return Metric{}, fmt.Errorf("bucket count %d exceeds body capacity %d", buckets, d.Remaining())
		}
		m.Count = int64(count)
		m.Buckets = make([]Bucket, 0, buckets)
		prev := math.Inf(-1)
		for b := uint64(0); b < buckets; b++ {
			bound := math.Float64frombits(d.Uvarint())
			bcount := d.Uvarint()
			if err := d.Err(); err != nil {
				return Metric{}, err
			}
			if bcount > math.MaxInt64 {
				return Metric{}, fmt.Errorf("bucket count %d overflows int64", bcount)
			}
			if math.IsNaN(bound) || (b > 0 && bound <= prev) {
				return Metric{}, fmt.Errorf("histogram bounds not strictly ascending at bucket %d", b)
			}
			prev = bound
			m.Buckets = append(m.Buckets, Bucket{UpperBound: JSONFloat(bound), Count: int64(bcount)})
		}
		if !math.IsInf(prev, 1) {
			return Metric{}, fmt.Errorf("histogram last bound %v is not +Inf", prev)
		}
	default:
		return Metric{}, fmt.Errorf("unknown metric kind %d", kind)
	}
	return m, nil
}

// decodeSpan parses one span record.
func decodeSpan(d *framing.Decoder) (SpanEvent, error) {
	s := SpanEvent{
		Name: d.StringMax(maxTelemetryLabel),
		Cat:  d.StringMax(maxTelemetryLabel),
	}
	tid := d.Uvarint()
	start := d.Uvarint()
	dur := d.Uvarint()
	argCount := d.Uvarint()
	if err := d.Err(); err != nil {
		return SpanEvent{}, err
	}
	if tid > math.MaxInt32 {
		return SpanEvent{}, fmt.Errorf("implausible tid %d", tid)
	}
	if start > math.MaxInt64 || dur > math.MaxInt64 {
		return SpanEvent{}, fmt.Errorf("span timestamp overflows int64")
	}
	if argCount > maxSpanArgs {
		return SpanEvent{}, fmt.Errorf("span arg count %d exceeds limit %d", argCount, maxSpanArgs)
	}
	s.Tid = int64(tid)
	s.Start, s.Dur = time.Duration(start), time.Duration(dur)
	if argCount > 0 {
		s.Args = make([]SpanArg, 0, argCount)
	}
	for a := uint64(0); a < argCount; a++ {
		key := d.StringMax(maxTelemetryLabel)
		val := d.Varint()
		if err := d.Err(); err != nil {
			return SpanEvent{}, err
		}
		s.Args = append(s.Args, SpanArg{Key: key, Value: val})
	}
	return s, nil
}
