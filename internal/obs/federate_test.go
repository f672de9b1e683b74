package obs

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestFleetMetricName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"surveyor_documents_total", "surveyor_fleet_documents_total"},
		{"custom_series", "surveyor_fleet_custom_series"},
	}
	for _, tc := range cases {
		if got := FleetMetricName(tc.in); got != tc.want {
			t.Errorf("FleetMetricName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// workerSnapshot builds one synthetic worker snapshot. Values are dyadic
// (integers and halves), so federated gauge and histogram sums are exact
// and the order-invariance property below can demand strict equality.
func workerSnapshot(rng *rand.Rand) []Metric {
	r := NewRegistry()
	r.Counter("surveyor_documents_total", "docs").Add(rng.Int63n(1000))
	r.Counter("surveyor_sentences_total", "sentences").Add(rng.Int63n(10000))
	r.Gauge("surveyor_distinct_pairs", "pairs").Set(float64(rng.Int63n(500)) / 2)
	h := r.Histogram("surveyor_doc_sentences", "sentences", []float64{1, 4, 16, 64})
	for i, n := 0, rng.Intn(20); i < n; i++ {
		h.Observe(float64(rng.Int63n(256)) / 2)
	}
	return r.Snapshot()
}

// TestFederationOrderInvariant is the satellite property test: absorbing
// N worker snapshots must produce the same federated registry state in
// every permutation — counter adds are integer-exact and dyadic
// gauge/histogram sums are float-exact, so the assertion is strict
// equality of the full snapshot.
func TestFederationOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const workers = 5
	snaps := make([][]Metric, workers)
	for i := range snaps {
		snaps[i] = workerSnapshot(rng)
	}

	federate := func(order []int) []Metric {
		r := NewRegistry()
		for _, i := range order {
			if err := r.AbsorbSnapshot(snaps[i]); err != nil {
				t.Fatalf("absorb snapshot %d: %v", i, err)
			}
		}
		return r.Snapshot()
	}

	base := federate([]int{0, 1, 2, 3, 4})
	if len(base) == 0 {
		t.Fatal("federation produced no series")
	}
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(workers)
		if got := federate(order); !reflect.DeepEqual(got, base) {
			t.Fatalf("federation order %v diverged from canonical order:\n got %+v\nwant %+v",
				order, got, base)
		}
	}
}

// TestFederationSumsCounters: the federated series is the exact sum of
// the worker series, under the fleet name.
func TestFederationSumsCounters(t *testing.T) {
	r := NewRegistry()
	var want int64
	for i := 0; i < 4; i++ {
		w := NewRegistry()
		w.Counter("surveyor_documents_total", "docs").Add(int64(10 + i))
		want += int64(10 + i)
		if err := r.AbsorbSnapshot(w.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range r.Snapshot() {
		if m.Name == "surveyor_fleet_documents_total" {
			if int64(m.Value) != want {
				t.Fatalf("federated sum = %v, want %d", m.Value, want)
			}
			return
		}
	}
	t.Fatal("federated series surveyor_fleet_documents_total not found")
}

// TestFederationHistogramBoundsMismatch: merging a histogram snapshot
// with different bounds fails clean — an error, and the registered
// series untouched (no half-merge).
func TestFederationHistogramBoundsMismatch(t *testing.T) {
	mkSnap := func(bounds []float64) []Metric {
		w := NewRegistry()
		w.Histogram("surveyor_doc_sentences", "s", bounds).Observe(3)
		return w.Snapshot()
	}
	r := NewRegistry()
	if err := r.AbsorbSnapshot(mkSnap([]float64{1, 4, 16})); err != nil {
		t.Fatal(err)
	}
	before := r.Snapshot()

	// Different bound count: rejected at registration shape check.
	if err := r.AbsorbSnapshot(mkSnap([]float64{1, 4})); err == nil {
		t.Fatal("bound-count mismatch absorbed silently")
	}
	// Same count, different bound values: rejected bucket-wise.
	err := r.AbsorbSnapshot(mkSnap([]float64{1, 5, 16}))
	if err == nil || !strings.Contains(err.Error(), "differs from registered bound") {
		t.Fatalf("err = %v, want bound mismatch", err)
	}
	if after := r.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected merge mutated the registry:\n before %+v\n after %+v", before, after)
	}
}

// TestFederationKindConflict: a snapshot series whose kind conflicts with
// the already-federated series is rejected with an error, not a panic.
func TestFederationKindConflict(t *testing.T) {
	r := NewRegistry()
	w1 := NewRegistry()
	w1.Counter("surveyor_thing_total", "c").Inc()
	if err := r.AbsorbSnapshot(w1.Snapshot()); err != nil {
		t.Fatal(err)
	}
	w2 := NewRegistry()
	w2.Gauge("surveyor_thing_total", "g").Set(1)
	if err := r.AbsorbSnapshot(w2.Snapshot()); err == nil {
		t.Fatal("kind conflict absorbed silently")
	}
}

// TestFederationRejectsNonIntegralCounter: counters federate by integer
// addition; a fractional or negative "counter" value is corruption.
func TestFederationRejectsNonIntegralCounter(t *testing.T) {
	for _, v := range []float64{1.5, -3, math.NaN(), math.Inf(1)} {
		r := NewRegistry()
		err := r.AbsorbSnapshot([]Metric{{Name: "surveyor_x_total", Kind: KindCounter, Value: v}})
		if err == nil {
			t.Errorf("counter value %v absorbed silently", v)
		}
	}
}

// TestFederationRejectsHistogramShape: a histogram whose bounds are not
// finite and strictly ascending up to a last +Inf bucket decodes (the
// decoder only bounds what it allocates) and is rejected by federation,
// whether absorbed directly or shipped in a frame, with no series moved.
func TestFederationRejectsHistogramShape(t *testing.T) {
	histogram := func(bounds ...float64) Metric {
		m := Metric{Name: "surveyor_h", Kind: KindHistogram, Count: 1, Sum: 1}
		for _, b := range bounds {
			m.Buckets = append(m.Buckets, Bucket{UpperBound: JSONFloat(b)})
		}
		m.Buckets[0].Count = 1
		return m
	}
	cases := []struct {
		name string
		m    Metric
		want string
	}{
		{"histogram without +Inf", histogram(5), "not +Inf"},
		{"histogram bounds not ascending", histogram(5, 2, math.Inf(1)), "not strictly ascending"},
		{"histogram NaN bound", histogram(math.NaN(), math.Inf(1)), "not strictly ascending"},
		{"histogram -Inf bound", histogram(math.Inf(-1), 1, math.Inf(1)), "not strictly ascending"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			err := r.AbsorbSnapshot([]Metric{tc.m})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("AbsorbSnapshot err = %v, want %q", err, tc.want)
			}
			if snap := r.Snapshot(); len(snap) != 0 {
				t.Fatalf("rejected snapshot registered %+v", snap)
			}

			var frame bytes.Buffer
			if _, err := EncodeTelemetry(&frame, &Telemetry{Metrics: []Metric{tc.m}}); err != nil {
				t.Fatal(err)
			}
			tel, _, err := DecodeTelemetry(&frame)
			if err != nil {
				t.Fatalf("decode: %v (shape is federation's to judge)", err)
			}
			o := New()
			o.StartFleet(1).ShardTelemetry(0, tel, nil)
			if note := o.Cluster.Snapshot().Shards[0].Telemetry; !strings.HasPrefix(note, "rejected: ") ||
				!strings.Contains(note, tc.want) {
				t.Fatalf("cluster note = %q, want rejected with %q", note, tc.want)
			}
			for _, m := range o.Metrics.Snapshot() {
				if strings.HasPrefix(m.Name, fleetPrefix) {
					t.Errorf("rejected frame registered %s", m.Name)
				}
			}
		})
	}
}

// TestAbsorbShardTelemetryRejection: a frame federation rejects moves
// nothing — no fleet series, not even the ones before the bad metric, and
// no spans. Only the frame counter and the rejection counter tick, and the
// shard's cluster note says why.
func TestAbsorbShardTelemetryRejection(t *testing.T) {
	counter := func(name string, v float64) Metric {
		return Metric{Name: name, Kind: KindCounter, Value: v}
	}
	histogram := func(bounds ...float64) Metric {
		r := NewRegistry()
		r.Histogram("surveyor_doc_sentences", "s", bounds).Observe(3)
		return r.Snapshot()[0]
	}
	cases := []struct {
		name  string
		prior []Metric // federated from shard 0 before the bad frame
		bad   []Metric
	}{
		{"fractional counter", nil,
			[]Metric{counter("surveyor_x_total", 0.5)}},
		{"valid counter then fractional counter", nil,
			[]Metric{counter("surveyor_a_total", 7), counter("surveyor_z_total", 0.5)}},
		{"valid counter then histogram bounds conflict", []Metric{histogram(1, 4, 16)},
			[]Metric{counter("surveyor_a_total", 7), histogram(1, 5, 16)}},
		{"one name with two kinds", nil,
			[]Metric{counter("surveyor_y_total", 1), {Name: "surveyor_y_total", Kind: KindGauge, Value: 1}}},
		{"count disagrees with buckets", nil,
			[]Metric{counter("surveyor_a_total", 7), func() Metric { h := histogram(1, 4, 16); h.Count = 5; return h }()}},
		{"two frames of 9e18", []Metric{counter("surveyor_c_total", 9e18)},
			[]Metric{counter("surveyor_a_total", 7), counter("surveyor_c_total", 9e18)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := New()
			fleet := o.StartFleet(2)
			if tc.prior != nil {
				fleet.ShardTelemetry(0, &Telemetry{Metrics: tc.prior}, nil)
				if tel := o.Cluster.Snapshot().Shards[0].Telemetry; tel != "ok" {
					t.Fatalf("prior frame note = %q, want ok", tel)
				}
			}
			before := o.Metrics.Snapshot()
			spans := len(o.Tracer.Events())
			fleet.ShardTelemetry(1, &Telemetry{
				Metrics: tc.bad,
				Spans:   []SpanEvent{{Name: "extract", Cat: "phase"}},
			}, nil)

			if tel := o.Cluster.Snapshot().Shards[1].Telemetry; !strings.HasPrefix(tel, "rejected: ") {
				t.Fatalf("cluster telemetry note = %q, want rejected", tel)
			}
			if n := len(o.Tracer.Events()); n != spans {
				t.Fatalf("rejected frame stitched %d spans", n-spans)
			}
			ticked := map[string]bool{"surveyor_dist_telemetry_frames_total": true, MetricTelemetryRejected: true}
			was := map[string]Metric{}
			for _, m := range before {
				was[m.Name] = m
			}
			after := o.Metrics.Snapshot()
			for _, m := range after {
				prev, ok := was[m.Name]
				delete(was, m.Name)
				switch {
				case ticked[m.Name]:
					if m.Value != prev.Value+1 {
						t.Errorf("%s = %v, want %v", m.Name, m.Value, prev.Value+1)
					}
				case !ok:
					t.Errorf("rejected frame registered %s = %+v", m.Name, m)
				case !reflect.DeepEqual(m, prev):
					t.Errorf("rejected frame moved %s: %+v -> %+v", m.Name, prev, m)
				}
			}
			for name := range was {
				t.Errorf("rejected frame removed %s", name)
			}
		})
	}
}
