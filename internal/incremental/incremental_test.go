package incremental_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/testkit"
)

// TestEmptyMiner pins the pre-ingest contract: a fresh miner publishes an
// empty but fully usable snapshot.
func TestEmptyMiner(t *testing.T) {
	w := testkit.NewTinyWorld(1, 0.1)
	m := incremental.New(w.KB, w.Lex, pipeline.Config{Rho: 1})
	snap := m.Snapshot()
	if snap == nil {
		t.Fatal("fresh miner published a nil snapshot")
	}
	if len(snap.Groups) != 0 || snap.Documents != 0 || snap.TotalStatements != 0 {
		t.Fatalf("fresh snapshot is not empty: %d groups, %d docs, %d statements",
			len(snap.Groups), snap.Documents, snap.TotalStatements)
	}
	if _, ok := snap.Group("animal", "cute"); ok {
		t.Fatal("empty snapshot resolved a group")
	}
	if m.Epochs() != 0 {
		t.Fatalf("fresh miner reports %d epochs", m.Epochs())
	}
}

// TestObsInvariance: telemetry is write-only — a miner wired to a live obs
// sink must publish snapshots bit-identical to one with none, and the
// epoch metrics must actually record.
func TestObsInvariance(t *testing.T) {
	w := testkit.NewTinyWorld(1, 0.4)
	docs := w.Docs()
	cfg := pipeline.Config{Rho: 5, Workers: 2}

	silent := incremental.New(w.KB, w.Lex, cfg)
	o := obs.New()
	ocfg := cfg
	ocfg.Obs = o
	observed := incremental.New(w.KB, w.Lex, ocfg)

	half := len(docs) / 2
	for _, epoch := range [][]corpus.Document{docs[:half], docs[half:]} {
		if _, err := silent.Ingest(context.Background(), epoch); err != nil {
			t.Fatal(err)
		}
		if _, err := observed.Ingest(context.Background(), epoch); err != nil {
			t.Fatal(err)
		}
	}
	if diffs := testkit.DiffResults(observed.Snapshot(), silent.Snapshot()); len(diffs) > 0 {
		t.Errorf("live obs sink changed the published snapshot:\n  %s", strings.Join(diffs, "\n  "))
	}
	if got := o.Incremental().Epochs.Value(); got != 2 {
		t.Errorf("epoch counter recorded %d epochs, want 2", got)
	}
	if o.Incremental().RefitTuples.Value() == 0 {
		t.Error("refit-tuple counter recorded nothing over two modelled epochs")
	}
}
