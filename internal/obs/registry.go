package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds the named metrics of one process. Metric handles are
// looked up (or created) once at setup time under a mutex; the recording
// methods on the handles are lock-free atomics, and every recording method
// is a no-op on a nil handle, so instrumented code pays a single branch
// when observability is disabled.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// metric is the common interface of the three kinds.
type metric interface {
	kind() MetricKind
	help() string
	snapshot(name string) Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

// MetricKind discriminates Metric snapshots.
type MetricKind int

// Metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	helpText string
	v        atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter. Zero on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) kind() MetricKind { return KindCounter }
func (c *Counter) help() string     { return c.helpText }
func (c *Counter) snapshot(name string) Metric {
	return Metric{Name: name, Help: c.helpText, Kind: KindCounter, Value: float64(c.v.Load())}
}

// Gauge is an atomic float64 value that may go up and down.
type Gauge struct {
	helpText string
	bits     atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add offsets the gauge by delta. No-op on a nil gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, delta)
}

// addFloat adds delta to the float64 held as IEEE 754 bits in b.
func addFloat(b *atomic.Uint64, delta float64) {
	for {
		old := b.Load()
		if b.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value reads the gauge. Zero on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) kind() MetricKind { return KindGauge }
func (g *Gauge) help() string     { return g.helpText }
func (g *Gauge) snapshot(name string) Metric {
	return Metric{Name: name, Help: g.helpText, Kind: KindGauge, Value: g.Value()}
}

// Histogram is a fixed-bucket histogram. Bucket boundaries are inclusive
// upper bounds; one extra bucket catches everything above the last bound
// (the Prometheus +Inf bucket). Observe is lock-free: a binary search plus
// three atomic adds.
type Histogram struct {
	helpText string
	bounds   []float64 // sorted ascending, exclusive of +Inf
	counts   []atomic.Int64
	count    atomic.Int64
	sumBits  atomic.Uint64
}

// Observe records one sample. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; len(bounds) is the +Inf slot.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the number of observations. Zero on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values. Zero on a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

func (h *Histogram) kind() MetricKind { return KindHistogram }
func (h *Histogram) help() string     { return h.helpText }
func (h *Histogram) snapshot(name string) Metric {
	m := Metric{Name: name, Help: h.helpText, Kind: KindHistogram,
		Count: h.count.Load(), Sum: h.Sum()}
	m.Buckets = make([]Bucket, len(h.bounds)+1)
	for i := range h.bounds {
		m.Buckets[i] = Bucket{UpperBound: JSONFloat(h.bounds[i]), Count: h.counts[i].Load()}
	}
	m.Buckets[len(h.bounds)] = Bucket{
		UpperBound: JSONFloat(math.Inf(1)), Count: h.counts[len(h.bounds)].Load()}
	return m
}

// JSONFloat is a float64 whose JSON encoding survives non-finite values:
// encoding/json rejects bare Inf/NaN numbers, so they render as the
// strings "+Inf", "-Inf", "NaN" (the Prometheus spellings). Histogram
// overflow bounds and EM log-likelihoods need this.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting both spellings.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+Inf"`:
		*f = JSONFloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = JSONFloat(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = JSONFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("obs: parse histogram bound %q: %w", b, err)
	}
	*f = JSONFloat(v)
	return nil
}

// Bucket is one histogram bucket in a snapshot: the count of samples in
// (previous bound, UpperBound].
type Bucket struct {
	UpperBound JSONFloat `json:"le"`
	Count      int64     `json:"count"`
}

// Metric is a point-in-time reading of one registered metric.
type Metric struct {
	Name    string     `json:"name"`
	Help    string     `json:"help,omitempty"`
	Kind    MetricKind `json:"-"`
	Value   float64    `json:"value,omitempty"`   // counter, gauge
	Buckets []Bucket   `json:"buckets,omitempty"` // histogram, non-cumulative
	Count   int64      `json:"count,omitempty"`   // histogram
	Sum     float64    `json:"sum,omitempty"`     // histogram
}

// Counter returns the counter registered under name, creating it with the
// given help text on first use. A nil registry returns a nil handle
// (whose methods are no-ops); registering a name that already holds a
// different metric kind panics — that is a programming error.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return register(r, name, func() *Counter { return &Counter{helpText: help} })
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return register(r, name, func() *Gauge { return &Gauge{helpText: help} })
}

// Histogram returns the histogram registered under name, creating it with
// the given inclusive upper bounds (which must be sorted strictly
// ascending) on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	return register(r, name, func() *Histogram {
		return newHistogram(help, append([]float64(nil), bounds...))
	})
}

func newHistogram(help string, bounds []float64) *Histogram {
	return &Histogram{helpText: help, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// register is the registrars' one look-up-or-create path: the metric
// registered under name, or fresh() inserted there on first use. A name
// holding another kind panics — code, not data, chose the name.
func register[M metric](r *Registry, name string, fresh func() M) M {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	if !ok {
		m = fresh()
		r.metrics[name] = m
	}
	got, ok := m.(M)
	if !ok { // got is M's nil pointer, whose kind() reads no field
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, got.kind(), m.kind()))
	}
	return got
}

// Snapshot reads every registered metric, sorted by name. Each individual
// value is an atomic read; the snapshot as a whole is not a cross-metric
// transaction (concurrent writers may land between reads), which is the
// standard contract for scrape-style metrics. A nil registry yields nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	handles := make([]metric, len(names))
	sort.Strings(names)
	for i, name := range names {
		handles[i] = r.metrics[name]
	}
	r.mu.Unlock()

	out := make([]Metric, len(names))
	for i, name := range names {
		out[i] = handles[i].snapshot(name)
	}
	return out
}

// WritePrometheus encodes the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE comment pairs, cumulative histogram
// buckets with an explicit +Inf bucket, _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.Snapshot() {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
			return err
		}
		switch m.Kind {
		case KindHistogram:
			cum := int64(0)
			for _, b := range m.Buckets {
				cum += b.Count
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
					m.Name, formatLe(float64(b.UpperBound)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
				m.Name, formatValue(m.Sum), m.Name, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatValue(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatLe renders a bucket bound the way Prometheus expects: "+Inf" for
// the overflow bucket, shortest round-trip decimal otherwise.
func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
