// Fault boundary of the pipeline: per-document panic quarantine, typed
// partial results for cancelled or truncated runs, and the bookkeeping
// that keeps both deterministic.
//
// Quarantine determinism contract: a run whose faults remove a document
// set D produces results — evidence counts, groups, opinions, EM traces —
// bit-identical to a clean run over the corpus with D removed, for any
// worker count and schedule. The contract holds because a document only
// reaches the shared state (worker accumulator, sentence counters) after
// it has fully processed: all per-document work happens against worker
// scratch and a per-document statement buffer, and a panic anywhere inside
// the boundary discards the buffer instead of committing it. The testkit
// chaos suite proves the contract under injected faults.
package pipeline

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/corpus"
	"repro/internal/extract"
)

// Quarantined records one document removed from a run by the panic
// boundary.
type Quarantined struct {
	// Doc is the document's index in the input corpus (for RunStream, its
	// zero-based sequence number in the stream).
	Doc int
	// Reason is the rendered panic value.
	Reason string
}

// PartialError reports a run that stopped before consuming its whole
// corpus — cancelled, or cut short by a streaming read error. The partial
// result is internally consistent: exactly the documents counted here were
// committed, each exactly once.
type PartialError struct {
	// Result is the partial result, never nil. Its evidence, groups, and
	// opinions are the complete clean-run output over the committed
	// documents; which documents committed is schedule-dependent.
	Result *Result
	// Processed counts fully committed documents (== Result.Documents).
	Processed int
	// Consumed is the number of leading corpus documents the run claimed
	// before stopping: every document with index < Consumed was either
	// committed or quarantined (see Result.Quarantined); every document at
	// or beyond Consumed was untouched.
	Consumed int
	// Err is the cause: the context's error, or the corpus read error.
	Err error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("pipeline: run stopped after %d of %d consumed documents: %v",
		e.Processed, e.Consumed, e.Err)
}

// Unwrap exposes the cause, so errors.Is(err, context.Canceled) works.
func (e *PartialError) Unwrap() error { return e.Err }

// quarantine is the per-document panic boundary: it runs process over one
// document and, if that panics, reports the rendered reason in place of
// the output. A healthy document has an empty reason.
func quarantine(process processor, seq int, doc *corpus.Document) (stmts []extract.Statement, sentences int64, reason string) {
	defer func() {
		if r := recover(); r != nil {
			reason = panicReason(r) // process never returned: the outputs are still zero
		}
	}()
	stmts, sentences = process(seq, doc)
	return stmts, sentences, ""
}

// panicReason renders a recovered panic value into the deterministic
// reason string recorded on the quarantine log. Panic values raised by
// document content are content-deterministic, so the rendered string is
// identical across schedules.
func panicReason(r any) string {
	if err, ok := r.(error); ok {
		return "panic: " + err.Error()
	}
	return fmt.Sprintf("panic: %v", r)
}

// quarantineLog collects quarantined documents across workers. The
// collection order is schedule-dependent; sorted() restores the canonical
// document order, which is what reaches Result.Quarantined.
type quarantineLog struct {
	mu   sync.Mutex
	docs []Quarantined
}

func (q *quarantineLog) add(doc int, reason string) {
	q.mu.Lock()
	q.docs = append(q.docs, Quarantined{Doc: doc, Reason: reason})
	q.mu.Unlock()
}

// sorted returns the records ordered by document index. Call only after
// every worker has finished.
func (q *quarantineLog) sorted() []Quarantined {
	sort.Slice(q.docs, func(a, b int) bool { return q.docs[a].Doc < q.docs[b].Doc })
	return q.docs
}
