// Metric federation: folding worker metric snapshots into the
// coordinator's registry. Worker series land under a distinct "fleet"
// namespace (surveyor_X → surveyor_fleet_X) so they can never collide
// with — or double-count against — the coordinator's own series: the
// reduce phase already records coordinator-side document/sentence/
// statement counters, and the fleet series are the sum of what the
// workers themselves observed.
//
// Federation is the one judge of what a worker's snapshot means. The
// telemetry decoder only bounds what it allocates; whether a counter is a
// count, a histogram's bounds ascend to +Inf, a kind is known, a name
// comes once, and each series matches the kind and bounds already
// federated under its name is checked here, for the whole snapshot,
// before any series moves. A snapshot is absorbed whole or not at all.
//
// Federation is deterministic: counters and gauges are summed (counter
// values are integral, so addition is exact and order-invariant), and
// histograms are merged bucket-wise, which requires identical bounds.
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
// histogram with identical bounds. It is all or nothing: under one hold
// of the registry lock every metric is checked first, and only a snapshot
// that passes whole is applied. A rejected snapshot returns the first
// fault and leaves the registry untouched; the caller treats it as
// rejected.
func (r *Registry) AbsorbSnapshot(metrics []Metric) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool, len(metrics))
	for i := range metrics {
		m := &metrics[i]
		name := FleetMetricName(m.Name)
		err := r.check(name, m)
		if err == nil && seen[name] {
			err = fmt.Errorf("series appears twice in one snapshot")
		}
		if err != nil {
			return fmt.Errorf("obs: federate %s: %w", m.Name, err)
		}
		seen[name] = true
	}
	for i := range metrics {
		r.apply(FleetMetricName(metrics[i].Name), &metrics[i])
	}
	return nil
}

// check reports why m cannot fold into the series named name: a counter
// value that is not a count, or whose sum with the federated value would
// overflow; a histogram that is not one (no buckets, bounds not finite and
// strictly ascending, last bound not +Inf, a count that disagrees with its
// buckets); an unknown kind; or a kind or bounds that differ from the
// series already federated there. Called with r.mu held; it moves nothing.
func (r *Registry) check(name string, m *Metric) error {
	switch m.Kind {
	case KindCounter:
		if m.Value != math.Trunc(m.Value) || m.Value < 0 || m.Value >= math.MaxInt64 {
			return fmt.Errorf("counter value %v is not a plausible count", m.Value)
		}
	case KindGauge:
	case KindHistogram:
		if len(m.Buckets) == 0 {
			return fmt.Errorf("histogram snapshot has no buckets")
		}
		last := len(m.Buckets) - 1
		for i, b := range m.Buckets[:last] {
			v := float64(b.UpperBound)
			if math.IsNaN(v) || math.IsInf(v, 0) || (i > 0 && v <= float64(m.Buckets[i-1].UpperBound)) {
				return fmt.Errorf("histogram bounds not strictly ascending at bucket %d", i)
			}
		}
		if !math.IsInf(float64(m.Buckets[last].UpperBound), 1) {
			return fmt.Errorf("histogram last bound %v is not +Inf", float64(m.Buckets[last].UpperBound))
		}
		var n int64
		for _, b := range m.Buckets {
			if b.Count < 0 || b.Count > math.MaxInt64-n {
				return fmt.Errorf("histogram bucket count %d is negative or overflows the total", b.Count)
			}
			n += b.Count
		}
		if n != m.Count {
			return fmt.Errorf("histogram count %d disagrees with its buckets' %d", m.Count, n)
		}
	default:
		return fmt.Errorf("unknown metric kind %d", m.Kind)
	}
	old, ok := r.metrics[name]
	if !ok {
		return nil
	}
	if old.kind() != m.Kind {
		return fmt.Errorf("already registered as %s, snapshot says %s", old.kind(), m.Kind)
	}
	if c, ok := old.(*Counter); ok && int64(m.Value) > math.MaxInt64-c.Value() {
		return fmt.Errorf("counter value %v overflows the federated %d", m.Value, c.Value())
	}
	if h, ok := old.(*Histogram); ok {
		if len(h.bounds) != len(m.Buckets)-1 {
			return fmt.Errorf("snapshot has %d bounds, registered histogram has %d", len(m.Buckets)-1, len(h.bounds))
		}
		for i, bound := range h.bounds {
			if v := float64(m.Buckets[i].UpperBound); v != bound {
				return fmt.Errorf("bucket %d bound %v differs from registered bound %v", i, v, bound)
			}
		}
	}
	return nil
}

// apply folds a checked metric into the series named name, creating the
// series from the snapshot's help and bounds on first use. Called with
// r.mu held.
func (r *Registry) apply(name string, m *Metric) {
	series, ok := r.metrics[name]
	if !ok {
		switch m.Kind {
		case KindCounter:
			series = &Counter{helpText: m.Help}
		case KindGauge:
			series = &Gauge{helpText: m.Help}
		default:
			bounds := make([]float64, len(m.Buckets)-1)
			for i := range bounds {
				bounds[i] = float64(m.Buckets[i].UpperBound)
			}
			series = newHistogram(m.Help, bounds)
		}
		r.metrics[name] = series
	}
	switch s := series.(type) {
	case *Counter:
		s.Add(int64(m.Value))
	case *Gauge:
		s.Add(m.Value)
	case *Histogram:
		for i, b := range m.Buckets {
			s.counts[i].Add(b.Count)
		}
		s.count.Add(m.Count)
		addFloat(&s.sumBits, m.Sum)
	}
}
