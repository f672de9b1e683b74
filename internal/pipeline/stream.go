package pipeline

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
)

// streamItem carries one document and its zero-based stream sequence
// number from the feeder to a worker.
type streamItem struct {
	seq int
	doc corpus.Document
}

// streamBatch is how many documents the feeder hands to a worker at once:
// enough that the channel operation and the wake-up it may cost are paid per
// batch, not per document; few enough that a cancelled run stops promptly.
const streamBatch = 64

// RunStream executes the full pipeline over documents drawn from a
// corpus.Iterator, so corpora larger than RAM can run: at most
// Config.StreamBuffer documents (default 4×Workers batches of streamBatch)
// are in flight between the reader and the workers, and nothing else
// scales with corpus size.
//
// Semantics match RunContext with stream sequence numbers standing in for
// document indices: panicking documents are quarantined (Result.Quarantined
// records their sequence numbers), cancellation stops the feed at batch
// granularity, and a run cut short — by ctx or by a fatal iterator error —
// still models its committed evidence and returns the partial result inside
// a *PartialError. Lines a lenient iterator skipped are surfaced on
// Result.SkippedLines. Every document the feeder hands out is processed to
// completion, so the consumed set is the contiguous prefix [0, Consumed) of
// the stream and the quarantine-determinism contract of fault.go carries
// over unchanged.
func RunStream(ctx context.Context, it *corpus.Iterator, base *kb.KB, lex *lexicon.Lexicon, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{}
	o := cfg.Obs
	workers := cfg.Workers
	o.StartRun(0, workers) // total unknown up front
	total := o.Phase("run")

	span := o.Phase("extract")
	pm := o.PipelineMetrics()
	store := evidence.NewStore()
	nlp := newNLPComponents(lex, base, cfg.Version)
	var sentences atomic.Int64
	var ql quarantineLog

	// StreamBuffer counts documents, the channel holds batches: a bound
	// below one batch shrinks the batch instead of being exceeded. The
	// queued batches let neither side idle while the other finishes one.
	batchSize, slots := streamBatch, 4*workers
	if cfg.StreamBuffer > 0 {
		batchSize = min(streamBatch, cfg.StreamBuffer)
		slots = cfg.StreamBuffer / batchSize
	}
	ch := make(chan []streamItem, slots)
	// Emptied batches return to the feeder here. One in the feeder's hand,
	// the channel's slots, one per worker: a free list that size never
	// blocks a worker.
	free := make(chan []streamItem, slots+workers+1)

	// The feeder is the only goroutine touching the iterator. It hands out
	// full batches, then the partial one once the input ends — cleanly or
	// on a fatal read error — and closes the channel. Cancellation is seen
	// at the next hand-off and drops the batch in hand, so Consumed stays
	// the count of documents the workers were given. sent and stopErr (why
	// the feed ended early, if it did) are written before the close, and
	// read only after the workers — whose range loops end at the close —
	// have been joined.
	var sent int
	var stopErr error
	go func() {
		defer close(ch)
		batch := make([]streamItem, 0, batchSize)
		handOff := func() bool {
			if stopErr = ctx.Err(); stopErr != nil { // a select alone would still send half the time
				return false
			}
			select {
			case ch <- batch:
				sent += len(batch)
			case <-ctx.Done():
				stopErr = ctx.Err()
				return false
			}
			select {
			case batch = <-free:
			default:
				batch = make([]streamItem, 0, batchSize)
			}
			return true
		}
		for it.Next() {
			batch = append(batch, streamItem{seq: sent + len(batch), doc: it.Doc()})
			if len(batch) == batchSize && !handOff() {
				return
			}
		}
		if len(batch) > 0 && !handOff() {
			return
		}
		stopErr = it.Err()
	}()

	// Workers never check ctx themselves: every document the feeder handed
	// out is processed to completion (committed or quarantined), keeping
	// the consumed prefix contiguous. Cancellation latency is bounded by
	// the batches queued in the channel plus the one each worker holds.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wo := o.Worker(w)
			local := int64(0)
			acc := evidence.NewLocal()
			proc := &docProcessor{nlpComponents: nlp}
			for batch := range ch {
				for i := range batch {
					item := &batch[i]
					wo.DocStart()
					if reason, ok := proc.process(item.seq, &item.doc, cfg.Fault); !ok {
						ql.add(item.seq, reason)
						pm.QuarantinedDocs.Inc()
						wo.DocEnd(item.seq, 0, 0)
						continue
					}
					for _, st := range proc.buf {
						acc.Add(st)
					}
					local += proc.sentences
					wo.DocEnd(item.seq, proc.sentences, int64(len(proc.buf)))
					pm.DocSentences.Observe(float64(proc.sentences))
				}
				clear(batch) // let the documents' text go before the batch waits for reuse
				free <- batch[:0]
			}
			acc.FlushTo(store)
			sentences.Add(local)
			wo.Close("extract")
		}(w)
	}
	wg.Wait()

	res.Quarantined = ql.sorted()
	res.Documents = sent - len(res.Quarantined)
	res.Store = store
	res.Sentences = sentences.Load()
	res.TotalStatements = store.TotalStatements()
	res.DistinctPairs = store.Len()
	res.SkippedLines = it.Stats().Skipped()
	res.Timings.Extraction = span.End()
	pm.Documents.Add(int64(res.Documents))
	pm.Sentences.Add(res.Sentences)
	pm.Statements.Add(res.TotalStatements)
	pm.SkippedLines.Add(res.SkippedLines)

	finishRun(res, base, cfg)
	res.Timings.Total = total.End()
	o.EndRun()
	if stopErr != nil {
		return res, &PartialError{Result: res, Processed: res.Documents, Consumed: sent, Err: stopErr}
	}
	return res, nil
}
