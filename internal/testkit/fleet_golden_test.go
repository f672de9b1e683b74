package testkit

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// TestFleetSurfaceGolden pins both views of one distributed run — the
// /cluster JSON and every coordinator, wire and federated series on
// /metrics (name, kind, help, value) — against a committed file. Three
// shards, shard 1's first worker crashes and its retry commits, every
// clock manual: each byte is a function of the corpus and the protocol.
// A refactor of the recording side must leave the file alone; an intended
// change to either surface shows up as a reviewed diff of it.
func TestFleetSurfaceGolden(t *testing.T) {
	w := NewTinyWorld(5, 0.05)
	o := coordRunObs() // every sink live, on a manual clock
	_, failed, err := dist.Mine(context.Background(), w.Docs(), w.KB, dist.Config{
		Shards: 3,
		Transport: &dist.LocalTransport{Base: w.KB, Lex: w.Lex,
			Pipeline:    pipeline.Config{Workers: 1},
			FailAttempt: func(shard, attempt int) bool { return shard == 1 && attempt == 0 },
			WorkerObs:   func(int) *obs.RunObs { return coordRunObs() }},
		Pipeline: pipeline.Config{Rho: 5, Obs: o},
		Retry:    dist.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})
	if err != nil || len(failed) != 0 {
		t.Fatalf("err=%v failed=%v", err, failed)
	}

	var got strings.Builder
	cluster, err := json.MarshalIndent(o.Cluster.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got.Write(cluster)
	got.WriteString("\n")
	for _, m := range o.Metrics.Snapshot() { // sorted by name
		if !strings.HasPrefix(m.Name, "surveyor_dist_") && !strings.HasPrefix(m.Name, "surveyor_wire_") &&
			!strings.HasPrefix(m.Name, "surveyor_fleet_") {
			continue
		}
		fmt.Fprintf(&got, "%s %s %q value=%v", m.Name, m.Kind, m.Help, m.Value)
		if m.Kind == obs.KindHistogram {
			fmt.Fprintf(&got, " count=%d sum=%v buckets=%v", m.Count, m.Sum, m.Buckets)
		}
		got.WriteString("\n")
	}

	const path = "testdata/fleet_surface.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("fleet surface differs from %s; got:\n%s", path, got.String())
	}
}
