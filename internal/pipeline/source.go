package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
)

// source is where extraction workers get their documents. Both sources
// keep one rule: ctx is checked before a claim and never after it, and a
// claimed document is always finished, so the consumed set is the
// contiguous prefix [0, consumed) whatever stops the run.
type source interface {
	// worker returns one worker's claim function: the next document and its
	// sequence number, or ok=false once the source ran dry, failed or was
	// cancelled. The document stays valid until that worker's next claim.
	worker() func() (seq int, doc *corpus.Document, ok bool)
	// stopped reports, once every worker has returned, how many leading
	// documents were claimed, how many input lines were skipped on the way,
	// and why the source stopped early (nil when it ran dry).
	stopped() (consumed int, skipped int64, err error)
}

// sliceSource feeds an in-memory corpus through a shared atomic index
// rather than static shards: document lengths are heavily skewed (the
// long-tail shapes of Figure 9), and pre-cut shards leave workers idle
// behind the slowest one. The evidence store is commutative, so the
// schedule cannot change the result — the testkit differential suite
// proves it. offset shifts every sequence number handed out.
type sliceSource struct {
	ctx    context.Context
	docs   []corpus.Document
	offset int
	next   atomic.Int64
}

func (s *sliceSource) worker() func() (int, *corpus.Document, bool) { return s.claim }

func (s *sliceSource) claim() (int, *corpus.Document, bool) {
	if s.ctx.Err() != nil {
		return 0, nil, false
	}
	i := int(s.next.Add(1)) - 1
	if i >= len(s.docs) {
		return 0, nil, false
	}
	return s.offset + i, &s.docs[i], true
}

func (s *sliceSource) stopped() (int, int64, error) {
	// Every index below the counter was claimed, so the processed prefix is
	// contiguous; workers that found the slice empty overshoot it.
	consumed := min(int(s.next.Load()), len(s.docs))
	if consumed < len(s.docs) {
		return consumed, 0, s.ctx.Err()
	}
	return consumed, 0, nil
}

// streamBatch is how many documents a worker reads per turn at the
// iterator: enough that the mutex and the hand-over of the reader's state
// are paid per batch, not per document; few enough that a cancelled run
// stops promptly and Workers × streamBatch documents is a small bound.
const streamBatch = 64

// iterSource feeds a corpus.Iterator to the workers. A worker that runs
// out of documents takes the mutex, reads its next streamBatch documents
// into its own reused batch, and releases it while the others keep
// extracting: never more than Workers × streamBatch documents in memory.
type iterSource struct {
	ctx  context.Context
	mu   sync.Mutex // guards everything below
	it   *corpus.Iterator
	sent int   // documents handed out so far
	done bool  // no more batches; err says why
	err  error // nil after a clean end of input
}

func (s *iterSource) worker() func() (int, *corpus.Document, bool) {
	batch := make([]corpus.Document, 0, streamBatch)
	first, i := 0, 0
	return func() (int, *corpus.Document, bool) {
		if i == len(batch) {
			clear(batch) // let the documents' text go before reading more
			first, batch = s.fill(batch[:0])
			if i = 0; len(batch) == 0 {
				return 0, nil, false
			}
		}
		i++
		return first + i - 1, &batch[i-1], true
	}
}

// fill reads the next batch into the caller's slice and returns it with
// the sequence number of its first document. The batch an error or the
// end of input cuts short is still handed out, so sent stays the count of
// documents the workers were given.
func (s *iterSource) fill(batch []corpus.Document) (int, []corpus.Document) {
	// The critical section is a few dozen decodes, some 30µs; parking this
	// thread and waking it again took 150µs on the 2-core benchmark box, the
	// core idle meanwhile. So a worker that finds the source busy yields and
	// retries for a few critical sections' worth of tries, and parks only
	// behind a reader that is itself blocked on input.
	for tries := 0; !s.mu.TryLock(); tries++ {
		if tries == 256 {
			s.mu.Lock()
			break
		}
		runtime.Gosched()
	}
	defer s.mu.Unlock()
	if !s.done && s.ctx.Err() != nil {
		s.done, s.err = true, s.ctx.Err()
	}
	if s.done {
		return 0, batch
	}
	first := s.sent
	for len(batch) < streamBatch && s.it.Next() {
		batch = append(batch, s.it.Doc())
	}
	s.sent += len(batch)
	if len(batch) < streamBatch {
		s.done, s.err = true, s.it.Err()
	}
	return first, batch
}

func (s *iterSource) stopped() (int, int64, error) {
	return s.sent, s.it.Stats().Skipped(), s.err
}
