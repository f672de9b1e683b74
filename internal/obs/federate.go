// Metric federation: folding worker metric snapshots into the
// coordinator's registry. Worker series land under a distinct "fleet"
// namespace (surveyor_X → surveyor_fleet_X) so they can never collide
// with — or double-count against — the coordinator's own series: the
// reduce phase already records coordinator-side document/sentence/
// statement counters, and the fleet series are the sum of what the
// workers themselves observed.
//
// Federation is deterministic: counters and gauges are summed (counter
// values are integral, so addition is exact and order-invariant), and
// histograms are merged bucket-wise, which requires identical bounds —
// a mismatch fails clean instead of producing a silently wrong series.
// The coordinator absorbs shards in shard order, pinning even the
// floating-point sums to one schedule-independent result.
package obs

import (
	"fmt"
	"math"
	"strings"
)

// fleetPrefix namespaces federated worker series in the coordinator
// registry.
const fleetPrefix = "surveyor_fleet_"

// FleetMetricName maps a worker-local series name to its federated name
// in the coordinator registry: surveyor_X → surveyor_fleet_X (names
// without the surveyor_ prefix are prefixed whole).
func FleetMetricName(name string) string {
	return fleetPrefix + strings.TrimPrefix(name, "surveyor_")
}

// AbsorbSnapshot folds one worker's metric snapshot into the registry
// under the fleet namespace: counter and gauge values add into the
// federated series, histogram buckets/count/sum merge into a federated
// histogram with identical bounds. The first shape mismatch — a name
// already registered as a different kind, or a histogram with different
// bounds — aborts with an error and leaves the remaining metrics
// unabsorbed; the caller treats the snapshot as rejected.
func (r *Registry) AbsorbSnapshot(metrics []Metric) error {
	if r == nil {
		return nil
	}
	for i := range metrics {
		m := &metrics[i]
		name := FleetMetricName(m.Name)
		if err := r.absorbMetric(name, m); err != nil {
			return fmt.Errorf("obs: federate %s: %w", m.Name, err)
		}
	}
	return nil
}

// absorbMetric folds one snapshot metric into the series named name,
// creating it on first use.
func (r *Registry) absorbMetric(name string, m *Metric) error {
	switch m.Kind {
	case KindCounter:
		c, err := register(r, name, func() *Counter { return &Counter{helpText: m.Help} })
		if err != nil {
			return err
		}
		if m.Value != math.Trunc(m.Value) || m.Value < 0 || m.Value > math.MaxInt64 {
			return fmt.Errorf("counter value %v is not a plausible count", m.Value)
		}
		c.Add(int64(m.Value))
	case KindGauge:
		g, err := register(r, name, func() *Gauge { return &Gauge{helpText: m.Help} })
		if err != nil {
			return err
		}
		g.Add(m.Value)
	case KindHistogram:
		return r.absorbHistogram(name, m)
	default:
		return fmt.Errorf("unknown metric kind %d", m.Kind)
	}
	return nil
}

// absorb merges one histogram snapshot bucket-wise into h. The caller
// has already proven the bucket counts match; the per-bucket bound
// equality is checked here — a mismatch fails clean.
func (h *Histogram) absorb(m *Metric) error {
	// Validate every bound before touching any counter, so a mismatched
	// snapshot rejects whole instead of half-merging.
	for i, b := range m.Buckets[:len(m.Buckets)-1] {
		if float64(b.UpperBound) != h.bounds[i] {
			return fmt.Errorf("bucket %d bound %v differs from registered bound %v",
				i, float64(b.UpperBound), h.bounds[i])
		}
	}
	for i, b := range m.Buckets {
		h.counts[i].Add(b.Count)
	}
	h.count.Add(m.Count)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + m.Sum)
		if h.sumBits.CompareAndSwap(old, next) {
			return nil
		}
	}
}

func (r *Registry) absorbHistogram(name string, m *Metric) error {
	if len(m.Buckets) == 0 {
		return fmt.Errorf("histogram snapshot has no buckets")
	}
	if !math.IsInf(float64(m.Buckets[len(m.Buckets)-1].UpperBound), 1) {
		return fmt.Errorf("last snapshot bucket bound is not +Inf")
	}
	bounds := make([]float64, len(m.Buckets)-1)
	for i := range bounds {
		bounds[i] = float64(m.Buckets[i].UpperBound)
		if math.IsNaN(bounds[i]) || math.IsInf(bounds[i], 0) || (i > 0 && bounds[i] <= bounds[i-1]) {
			return fmt.Errorf("snapshot bounds not strictly ascending at bucket %d", i)
		}
	}

	h, err := register(r, name, func() *Histogram { return newHistogram(m.Help, bounds) })
	if err != nil {
		return err
	}
	if len(h.bounds) != len(bounds) {
		return fmt.Errorf("snapshot has %d bounds, registered histogram has %d", len(bounds), len(h.bounds))
	}
	return h.absorb(m)
}
