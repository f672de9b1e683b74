package obs

import (
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

// TestAbsorbShardTelemetryRejectionKeepsTrace: a frame whose metrics are
// rejected must contribute nothing — no fleet series, no spans — and
// must tick the rejection counter and the cluster note.
func TestAbsorbShardTelemetryRejection(t *testing.T) {
	o := New()
	fleet := o.StartFleet(2)
	bad := &Telemetry{
		Metrics: []Metric{{Name: "surveyor_x_total", Kind: KindCounter, Value: 0.5}},
		Spans:   []SpanEvent{{Name: "extract", Cat: "phase"}},
	}
	fleet.ShardTelemetry(1, bad, nil)
	if got := o.Metrics.Counter(MetricTelemetryRejected, "").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if n := o.Tracer.EventCount(); n != 0 {
		t.Fatalf("rejected frame stitched %d spans", n)
	}
	snap := o.Cluster.Snapshot()
	if tel := snap.Shards[1].Telemetry; !strings.HasPrefix(tel, "rejected: ") {
		t.Fatalf("cluster telemetry note = %q, want rejected", tel)
	}
}
