package surveyor

import (
	"context"

	"repro/internal/incremental"
)

// IncrementalMiner mines a corpus epoch by epoch: each Ingest folds a new
// document batch into the cumulative evidence, re-fits only the
// (type, property) groups the batch touched, and publishes a refreshed
// Result. The published Result after any sequence of epochs is
// bit-identical to one Mine call over the concatenation of those epochs —
// the differential epoch harness in internal/testkit proves it for
// arbitrary splits, worker counts, and quarantined documents.
type IncrementalMiner struct {
	sys   *System
	miner *incremental.Miner
}

// EpochStats reports one ingested epoch: the documents it committed and
// quarantined, the statements it added, how many (type, property) groups
// its evidence touched (DirtyGroups) and how many of those were re-fitted
// over how many entity tuples — RefitGroups/ModelledGroups is the fraction
// of modelling work the epoch actually redid. Duration is wall-clock and,
// like Stats timings, outside the determinism contract.
type EpochStats = incremental.EpochStats

// MineIncremental starts an always-on incremental mining session over the
// system's knowledge base. The returned miner is ready immediately; its
// Snapshot before any epoch is an empty result.
func (s *System) MineIncremental(cfg Config) *IncrementalMiner {
	s.registerPending()
	return &IncrementalMiner{
		sys:   s,
		miner: incremental.New(s.kb, s.lex, s.pipelineConfig(cfg)),
	}
}

// Epoch ingests one document batch and publishes the refreshed snapshot.
// Epochs are atomic: on error (cancellation mid-epoch) nothing is
// committed and the previously published snapshot stands.
func (m *IncrementalMiner) Epoch(ctx context.Context, docs []Document) (EpochStats, error) {
	return m.miner.Ingest(ctx, docs)
}

// Snapshot returns the current published mining result — the complete,
// batch-identical result over every document ingested so far. Safe to
// call concurrently with Epoch; it never blocks on an ingest in progress.
func (m *IncrementalMiner) Snapshot() *Result {
	return &Result{sys: m.sys, res: m.miner.Snapshot()}
}

// Epochs returns the number of epochs ingested so far.
func (m *IncrementalMiner) Epochs() int { return m.miner.Epochs() }
