package testkit

// Differential epoch harness for the incremental miner: split a corpus
// into epochs any way at all, replay them through internal/incremental,
// and compare the final published snapshot bit for bit against one batch
// run over the concatenation. The helpers here are shared by the epoch
// differential suite in this package and the incremental package's own
// fuzz target.

import (
	"context"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/incremental"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/pipeline"
)

// SplitContiguous partitions docs into n contiguous epochs of near-equal
// size (the same arithmetic as cmd/surveyor -epochs). Epochs may be empty
// when n exceeds len(docs).
func SplitContiguous(docs []corpus.Document, n int) [][]corpus.Document {
	epochs := make([][]corpus.Document, n)
	for e := 0; e < n; e++ {
		lo, hi := len(docs)*e/n, len(docs)*(e+1)/n
		epochs[e] = docs[lo:hi]
	}
	return epochs
}

// SplitAt partitions docs at explicit cut offsets (each in [0, len]),
// which must be non-decreasing; repeated cuts produce empty epochs. With
// k cuts the result has k+1 epochs whose concatenation is docs.
func SplitAt(docs []corpus.Document, cuts ...int) [][]corpus.Document {
	epochs := make([][]corpus.Document, 0, len(cuts)+1)
	lo := 0
	for _, hi := range cuts {
		if hi < lo || hi > len(docs) {
			panic(fmt.Sprintf("testkit: SplitAt cut %d outside [%d, %d]", hi, lo, len(docs)))
		}
		epochs = append(epochs, docs[lo:hi])
		lo = hi
	}
	return append(epochs, docs[lo:])
}

// RunEpochs replays the epochs through a fresh incremental miner and
// returns the final published snapshot together with every epoch's stats.
// An ingest error (impossible with an uncancelled context) is surfaced so
// callers never diff a snapshot that silently missed an epoch.
func RunEpochs(epochs [][]corpus.Document, base *kb.KB, lex *lexicon.Lexicon, cfg pipeline.Config) (*pipeline.Result, []incremental.EpochStats, error) {
	m := incremental.New(base, lex, cfg)
	stats := make([]incremental.EpochStats, 0, len(epochs))
	for i, docs := range epochs {
		st, err := m.Ingest(context.Background(), docs)
		if err != nil {
			return nil, stats, fmt.Errorf("epoch %d: %w", i, err)
		}
		stats = append(stats, st)
	}
	return m.Snapshot(), stats, nil
}
