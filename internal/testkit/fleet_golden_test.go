package testkit

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
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
	o := coordRunObs() // every sink live, on a manual clock
	fleetRun(t, o, func(int) *obs.RunObs { return coordRunObs() })

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

// fleetRun is the golden's distributed run: three shards over
// LocalTransport, shard 1's first worker crashing and its retry
// committing, recorded into o, each worker attempt into workerObs(shard).
func fleetRun(t *testing.T, o *obs.RunObs, workerObs func(shard int) *obs.RunObs) {
	t.Helper()
	w := NewTinyWorld(5, 0.05)
	_, failed, err := dist.Mine(context.Background(), w.Docs(), w.KB, dist.Config{
		Shards: 3,
		Transport: &dist.LocalTransport{Base: w.KB, Lex: w.Lex,
			Pipeline:    pipeline.Config{Workers: 1},
			FailAttempt: func(shard, attempt int) bool { return shard == 1 && attempt == 0 },
			WorkerObs:   workerObs},
		Pipeline: pipeline.Config{Rho: 5, Obs: o},
		Retry:    dist.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})
	if err != nil || len(failed) != 0 {
		t.Fatalf("err=%v failed=%v", err, failed)
	}
}

// TestFleetTraceStitched decodes /trace of the golden's distributed run
// and checks the stitched worker tracks: a process_name record
// for the coordinator and for each worker, every worker span on its
// shard's pid, and every worker span's ts its worker-clock start plus
// that shard's skew_ms. Each worker's manual clock starts s+1 seconds
// ahead and the coordinator's at 7 s, so every shard's skew is distinct
// and non-zero.
func TestFleetTraceStitched(t *testing.T) {
	const shards = 3
	o := coordRunObs()
	o.Clock.(*obs.ManualClock).Set(7 * time.Second)
	var mu sync.Mutex
	workers := map[int]*obs.RunObs{} // the last attempt's: the one that committed
	fleetRun(t, o, func(s int) *obs.RunObs {
		wo := coordRunObs()
		wo.Clock.(*obs.ManualClock).Set(time.Duration(s+1) * time.Second)
		mu.Lock()
		workers[s] = wo
		mu.Unlock()
		return wo
	})

	rec := httptest.NewRecorder()
	obs.Handler(o).ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trace); err != nil {
		t.Fatalf("/trace is not JSON: %v", err)
	}

	labels := map[int][]string{}
	spans := map[int][]float64{} // pid → ts of its spans, in trace order
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				labels[e.Pid] = append(labels[e.Pid], fmt.Sprint(e.Args["name"]))
			}
		case "X":
			spans[e.Pid] = append(spans[e.Pid], e.Ts)
		}
	}
	wantLabels := map[int][]string{obs.CoordinatorPid: {"coordinator"}}
	for s := 0; s < shards; s++ {
		wantLabels[obs.WorkerPid(s)] = []string{fmt.Sprintf("worker %d", s)}
	}
	if fmt.Sprint(labels) != fmt.Sprint(wantLabels) {
		t.Errorf("process_name records = %v, want %v", labels, wantLabels)
	}
	for pid := range spans {
		if _, ok := wantLabels[pid]; !ok {
			t.Errorf("%d spans on pid %d, which no process owns", len(spans[pid]), pid)
		}
	}

	cluster := o.Cluster.Snapshot()
	for s := 0; s < shards; s++ {
		skew := cluster.Shards[s].SkewMillis
		if want := float64(7000 - 1000*(s+1)); skew != want {
			t.Errorf("shard %d skew_ms = %v, want %v", s, skew, want)
		}
		local := workers[s].Tracer.Events()
		got := spans[obs.WorkerPid(s)]
		if len(local) == 0 || len(got) != len(local) {
			t.Fatalf("shard %d: %d spans on pid %d, the worker recorded %d",
				s, len(got), obs.WorkerPid(s), len(local))
		}
		for i, sp := range local {
			if want := float64(sp.Start.Nanoseconds())/1e3 + skew*1e3; got[i] != want {
				t.Errorf("shard %d span %d (%s): ts = %v, want worker start %v + skew %v ms = %v",
					s, i, sp.Name, got[i], sp.Start, skew, want)
			}
		}
	}
}
