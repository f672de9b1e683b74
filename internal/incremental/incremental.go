// Package incremental is the always-on miner: it ingests corpus epochs
// (in-memory document batches), folds each epoch's evidence delta into the
// cumulative store through the proven Merge algebra, and re-runs grouping
// and EM only for the *dirty* (type, property) groups — those whose
// counters the epoch changed. The refreshed fits are spliced into an
// immutable, atomically published snapshot shaped exactly like a batch
// *pipeline.Result*.
//
// Correctness contract (proven by the differential epoch harness in
// internal/testkit, bit for bit): for ANY partition of a corpus into
// epochs, the snapshot published after the last epoch is identical to one
// batch pipeline.Run over the concatenation — for any worker count, any
// split points, and with panic-quarantined documents. The argument:
//
//   - Evidence counters only ever add, and Store.Merge is commutative and
//     associative, so the cumulative store after N epochs equals the batch
//     store (PR 1's algebra).
//   - A group's EM fit is a deterministic function of its cumulative
//     counters and the EM config. A *clean* group's counters did not
//     change this epoch, so its previous fit — itself computed from those
//     exact counters — is already the batch answer; only dirty groups
//     need re-fitting, from scratch, over their cumulative counters.
//   - Counters never decrease, so a group's statement total is monotone:
//     once it crosses the ρ threshold it stays modelled, and a dirty
//     group below ρ has never been modelled — splicing is insert-or-
//     replace, never delete.
//
// Epochs are atomic: a cancelled or failed epoch leaves the published
// snapshot, the cumulative store, and every statistic untouched.
//
// The published snapshot's Groups and opinions are immutable: an epoch
// publishes by merging its re-fits into a copy of the previous group list
// and never writes through the old one, so a held snapshot stays frozen
// while clean groups share their Entities with its successors. Its Store
// field references the live cumulative store — safe for concurrent readers
// (the store locks internally) but its counters advance as later epochs
// merge; readers needing a frozen view use the snapshot's Groups.
package incremental

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/pipeline"
)

// EpochStats reports one ingested epoch. Duration is wall-clock and —
// like pipeline.Timings — outside the determinism contract; every other
// field is schedule-independent.
type EpochStats struct {
	// Epoch is the zero-based index of this epoch.
	Epoch int
	// Documents counts documents committed this epoch; Quarantined counts
	// documents the panic boundary removed from it.
	Documents   int
	Quarantined int
	// Statements counts evidence statements the epoch added.
	Statements int64
	// DirtyGroups counts (type, property) groups whose counters changed.
	// RefitGroups of them were at or above ρ and were re-fitted with EM,
	// processing RefitTuples entity tuples — the re-fit cost, proportional
	// to the dirty set rather than the corpus.
	DirtyGroups int
	RefitGroups int
	RefitTuples int64
	// ModelledGroups is the total modelled group count after the splice.
	ModelledGroups int
	// Duration is the end-to-end epoch latency.
	Duration time.Duration
}

// Miner is the incremental mining engine. Ingestion is serialised (the
// Miner locks internally); Snapshot may be called concurrently from any
// goroutine and never blocks on an ingest in progress.
type Miner struct {
	mu   sync.Mutex
	base *kb.KB
	lex  *lexicon.Lexicon
	cfg  pipeline.Config // defaults resolved

	store *evidence.Store
	acc   *evidence.GroupAccumulator

	epochs int

	// published is the current snapshot and the only copy of the cumulative
	// input statistics: an epoch adds its own to the ones it reads there.
	published atomic.Pointer[pipeline.Result]
}

// New returns a Miner over the knowledge base and lexicon with an empty
// published snapshot. cfg is interpreted exactly as by pipeline.Run;
// cfg.Fault applies per document inside each epoch's quarantine boundary,
// with document indices global across epochs.
func New(base *kb.KB, lex *lexicon.Lexicon, cfg pipeline.Config) *Miner {
	m := &Miner{
		base:  base,
		lex:   lex,
		cfg:   cfg.WithDefaults(),
		store: evidence.NewStore(),
		acc:   evidence.NewGroupAccumulator(base),
	}
	m.published.Store(pipeline.AssembleResult(m.store, nil, pipeline.ResultStats{}))
	return m
}

// Snapshot returns the currently published mining result: the complete
// batch-identical result over every document ingested so far. Before the
// first epoch it is an empty result, on which every lookup misses.
func (m *Miner) Snapshot() *pipeline.Result { return m.published.Load() }

// Epochs returns the number of epochs ingested.
func (m *Miner) Epochs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epochs
}

// Ingest runs one epoch over an in-memory document batch: extract the
// epoch's evidence delta, merge, re-fit the dirty groups, splice, and
// publish the refreshed snapshot. On error (cancellation mid-extraction)
// nothing is committed and the published snapshot is unchanged.
func (m *Miner) Ingest(ctx context.Context, docs []corpus.Document) (EpochStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ingest(ctx, docs)
}

// ingest is the epoch state machine. Caller holds m.mu.
func (m *Miner) ingest(ctx context.Context, docs []corpus.Document) (EpochStats, error) {
	o := m.cfg.Obs
	io := o.Incremental()
	span := o.Phase("epoch")

	// Extract the epoch's evidence delta, with document indices offset so
	// quarantine records match a batch run over the concatenation. Atomic
	// epochs: a cancelled extraction commits nothing.
	prev := m.published.Load()
	ext, err := pipeline.ExtractEvidence(ctx, docs, m.base, m.lex, m.cfg, prev.Documents+len(prev.Quarantined))
	if err != nil {
		return EpochStats{}, err
	}
	delta := ext.Store
	newStatements := delta.TotalStatements()

	// Merge the delta into the cumulative store and the per-group
	// aggregates; the dirty set is every group the delta touched.
	m.store.Merge(delta)
	dirty := m.acc.AbsorbDelta(delta)

	// Re-fit only the dirty groups at or above ρ, over their *cumulative*
	// counters — from scratch, exactly as a batch run would, so the fit is
	// bit-identical to the batch fit of the same counters.
	refit := pipeline.FitGroups(m.acc.Kept(dirty, m.cfg.Rho), m.cfg)
	var refitTuples int64
	for i := range refit {
		refitTuples += int64(len(refit[i].Entities))
	}

	snap := m.publish(prev, refit, ext, newStatements)
	m.epochs++

	stats := EpochStats{
		Epoch:          m.epochs - 1,
		Documents:      ext.Consumed - len(ext.Quarantined),
		Quarantined:    len(ext.Quarantined),
		Statements:     newStatements,
		DirtyGroups:    len(dirty),
		RefitGroups:    len(refit),
		RefitTuples:    refitTuples,
		ModelledGroups: len(snap.Groups),
		Duration:       span.End(),
	}
	snap.RecordSince(prev, o)
	io.Epochs.Inc()
	io.DirtyGroups.Add(int64(stats.DirtyGroups))
	io.DirtyPerEpoch.Observe(float64(stats.DirtyGroups))
	io.RefitGroups.Add(int64(stats.RefitGroups))
	io.RefitTuples.Add(stats.RefitTuples)
	if stats.ModelledGroups > 0 {
		io.RefitFraction.Set(float64(stats.RefitGroups) / float64(stats.ModelledGroups))
	}
	io.EpochMillis.Observe(float64(stats.Duration) / float64(time.Millisecond))
	return stats, nil
}

// publish merges the epoch's re-fits — sorted by key, as FitGroups returns
// them for the sorted dirty set — into a copy of prev's group list, adds the
// epoch's input statistics to prev's and swaps the new snapshot in: replace
// on equal key, insert on a first crossing of ρ. Clean groups keep their
// previous GroupResult (their counters, and therefore their batch fits, did
// not change) and share its Entities with prev, which is never written.
// Caller holds m.mu.
func (m *Miner) publish(prev *pipeline.Result, refit []pipeline.GroupResult, ext *pipeline.Extraction, statements int64) *pipeline.Result {
	groups := make([]pipeline.GroupResult, 0, len(prev.Groups)+len(refit))
	for _, g := range prev.Groups {
		for len(refit) > 0 && refit[0].Key.Compare(g.Key) < 0 {
			groups, refit = append(groups, refit[0]), refit[1:]
		}
		if len(refit) > 0 && refit[0].Key == g.Key {
			g, refit = refit[0], refit[1:]
		}
		groups = append(groups, g)
	}
	res := pipeline.AssembleResult(m.store, append(groups, refit...), pipeline.ResultStats{
		TotalStatements:   prev.TotalStatements + statements,
		DistinctPairs:     m.store.Len(),
		PairsBeforeFilter: m.acc.Pairs(),
		Sentences:         prev.Sentences + ext.Sentences,
		Documents:         prev.Documents + ext.Consumed - len(ext.Quarantined),
		Quarantined:       slices.Concat(prev.Quarantined, ext.Quarantined),
	})
	m.published.Store(res)
	return res
}
