package testkit

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
)

// chaosSeed drives the fault selector; chaosRate quarantines roughly a
// fifth of the corpus, enough to shift every downstream statistic.
const (
	chaosSeed = 99
	chaosRate = 0.2
)

// stripQuarantine returns a shallow copy of res with the quarantine
// records cleared, so DiffResults can compare a faulted run against a
// clean run that never had any.
func stripQuarantine(res *pipeline.Result) *pipeline.Result {
	cp := *res
	cp.Quarantined = nil
	return &cp
}

// TestQuarantineDeterminism is the tentpole differential proof: a run with
// faults injected into the content-selected document set D must be
// bit-identical — evidence counts, groups, EM traces, opinions — to a
// clean run over the corpus with D removed, for every worker count.
func TestQuarantineDeterminism(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	kept, faulted := Partition(docs, chaosSeed, chaosRate)
	if len(faulted) == 0 || len(faulted) == len(docs) {
		t.Fatalf("selector picked %d of %d documents — useless fixture", len(faulted), len(docs))
	}
	cfg := pipeline.Config{Rho: 10, Workers: 4}
	clean := pipeline.Run(kept, w.KB, w.Lex, cfg)

	for _, workers := range []int{1, 2, 8} {
		cfg := cfg
		cfg.Workers = workers
		cfg.Fault = PanicFault(chaosSeed, chaosRate)
		res, err := pipeline.RunContext(context.Background(), docs, w.KB, w.Lex, cfg)
		if err != nil {
			t.Fatalf("workers %d: fault injection must not fail the run: %v", workers, err)
		}
		if len(res.Quarantined) != len(faulted) {
			t.Fatalf("workers %d: quarantined %d documents, selector picked %d",
				workers, len(res.Quarantined), len(faulted))
		}
		for i, q := range res.Quarantined {
			if q.Doc != faulted[i] {
				t.Errorf("workers %d: quarantine %d is doc %d, want %d", workers, i, q.Doc, faulted[i])
			}
			if !strings.Contains(q.Reason, "injected fault") {
				t.Errorf("workers %d: quarantine reason %q does not name the fault", workers, q.Reason)
			}
		}
		if diffs := DiffResults(stripQuarantine(res), clean); len(diffs) > 0 {
			t.Errorf("workers %d: faulted run diverges from clean run over survivors:\n  %s",
				workers, strings.Join(diffs, "\n  "))
		}
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (plus slack for runtime helpers), failing the test if it never
// does — the leak detector for the cancellation paths.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	// ~5s budget as a poll count, not a wall-clock deadline.
	for tries := 0; tries < 500; tries++ {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestCancellationConsistency cancels mid-run from inside the pipeline
// (via the fault hook, after a fixed number of documents) and asserts the
// partial result is exactly the clean result over the consumed prefix
// minus nothing — every claimed document committed exactly once — and
// that no goroutines leak.
func TestCancellationConsistency(t *testing.T) {
	w := NewWorld(3, diffScale)
	docs := w.Docs()
	baseline := runtime.NumGoroutine()

	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var processed atomic.Int64
		cfg := pipeline.Config{Rho: 10, Workers: workers}
		cfg.Fault = func(int, *corpus.Document) {
			if processed.Add(1) == int64(len(docs)/3) {
				cancel()
			}
		}
		res, err := pipeline.RunContext(ctx, docs, w.KB, w.Lex, cfg)
		cancel()
		waitForGoroutines(t, baseline)
		var pe *pipeline.PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("workers %d: want *PartialError, got %v", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers %d: cause %v, want context.Canceled", workers, pe.Err)
		}
		if pe.Result != res {
			t.Errorf("workers %d: PartialError.Result is not the returned result", workers)
		}
		if pe.Consumed >= len(docs) || pe.Consumed < len(docs)/3 {
			t.Fatalf("workers %d: consumed %d of %d — cancellation fired too early or not at all",
				workers, pe.Consumed, len(docs))
		}
		if pe.Processed != res.Documents || pe.Processed != pe.Consumed {
			t.Fatalf("workers %d: processed %d, consumed %d, Documents %d — inconsistent partial counts",
				workers, pe.Processed, pe.Consumed, res.Documents)
		}
		clean := pipeline.Run(docs[:pe.Consumed], w.KB, w.Lex, pipeline.Config{Rho: 10, Workers: 4})
		if diffs := DiffResults(res, clean); len(diffs) > 0 {
			t.Errorf("workers %d: partial result diverges from clean run over consumed prefix:\n  %s",
				workers, strings.Join(diffs, "\n  "))
		}
	}
}

// corpusJSONL serialises the world's documents the way cmd/corpusgen would.
func corpusJSONL(t *testing.T, docs []corpus.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := corpus.WriteJSONL(&buf, docs); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestStreamMatchesRun asserts RunStream over a clean JSONL stream is
// bit-identical to Run over the same documents in memory, for every worker
// count, including through a byte-at-a-time short reader.
func TestStreamMatchesRun(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	data := corpusJSONL(t, docs)
	clean := pipeline.Run(docs, w.KB, w.Lex, pipeline.Config{Rho: 10, Workers: 4})

	for _, workers := range []int{1, 2, 8} {
		it := corpus.NewIterator(&ShortReader{R: bytes.NewReader(data), N: 4096}, corpus.IteratorConfig{})
		res, err := pipeline.RunStream(context.Background(), it, w.KB, w.Lex,
			pipeline.Config{Rho: 10, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: clean stream failed: %v", workers, err)
		}
		if res.SkippedLines != 0 {
			t.Errorf("workers %d: clean stream skipped %d lines", workers, res.SkippedLines)
		}
		if diffs := DiffResults(res, clean); len(diffs) > 0 {
			t.Errorf("workers %d: stream run diverges from in-memory run:\n  %s",
				workers, strings.Join(diffs, "\n  "))
		}
	}
}

// TestLenientStreamEquivalence interleaves garbage and oversized lines
// into the JSONL stream and asserts the lenient run skips exactly them and
// otherwise matches the in-memory run over the valid documents.
func TestLenientStreamEquivalence(t *testing.T) {
	w := NewWorld(2, diffScale)
	docs := w.Docs()
	clean := pipeline.Run(docs, w.KB, w.Lex, pipeline.Config{Rho: 10, Workers: 4})

	var buf bytes.Buffer
	garbage := 0
	oversized := strings.Repeat("x", 96<<10)
	for i := range docs {
		if i%7 == 0 {
			buf.WriteString("{not json}\n")
			garbage++
		}
		if i%13 == 0 {
			buf.WriteString(oversized + "\n")
			garbage++
		}
		if err := corpus.WriteJSONL(&buf, docs[i:i+1]); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
	}
	it := corpus.NewIterator(&buf, corpus.IteratorConfig{Lenient: true, MaxLineBytes: 64 << 10})
	res, err := pipeline.RunStream(context.Background(), it, w.KB, w.Lex,
		pipeline.Config{Rho: 10, Workers: 8})
	if err != nil {
		t.Fatalf("lenient stream failed: %v", err)
	}
	if res.SkippedLines != int64(garbage) {
		t.Errorf("skipped %d lines, injected %d", res.SkippedLines, garbage)
	}
	if diffs := DiffResults(res, clean); len(diffs) > 0 {
		t.Errorf("lenient stream diverges from in-memory run over valid documents:\n  %s",
			strings.Join(diffs, "\n  "))
	}
}

// TestStreamReadErrorPartial kills the underlying reader mid-stream and
// asserts RunStream surfaces the cause in a *PartialError whose result is
// the clean run over the documents that made it through.
func TestStreamReadErrorPartial(t *testing.T) {
	w := NewWorld(3, diffScale)
	docs := w.Docs()
	data := corpusJSONL(t, docs)
	baseline := runtime.NumGoroutine()

	it := corpus.NewIterator(&FailingReader{R: bytes.NewReader(data), N: int64(len(data) / 2)},
		corpus.IteratorConfig{})
	res, err := pipeline.RunStream(context.Background(), it, w.KB, w.Lex,
		pipeline.Config{Rho: 10, Workers: 4})
	waitForGoroutines(t, baseline)
	var pe *pipeline.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("cause %v, want ErrInjected", pe.Err)
	}
	if pe.Consumed == 0 || pe.Consumed >= len(docs) {
		t.Fatalf("consumed %d of %d — fault fired at the wrong time", pe.Consumed, len(docs))
	}
	if pe.Processed != res.Documents || pe.Processed != pe.Consumed {
		t.Fatalf("processed %d, consumed %d, Documents %d — inconsistent partial counts",
			pe.Processed, pe.Consumed, res.Documents)
	}
	clean := pipeline.Run(docs[:pe.Consumed], w.KB, w.Lex, pipeline.Config{Rho: 10, Workers: 4})
	if diffs := DiffResults(res, clean); len(diffs) > 0 {
		t.Errorf("partial stream result diverges from clean run over consumed prefix:\n  %s",
			strings.Join(diffs, "\n  "))
	}
}

// TestStreamCancelNoLeak cancels a streaming run mid-flight and asserts
// the workers all exit and the partial counts stay consistent.
func TestStreamCancelNoLeak(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	data := corpusJSONL(t, docs)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var processed atomic.Int64
	cfg := pipeline.Config{Rho: 10, Workers: 4}
	cfg.Fault = func(int, *corpus.Document) {
		if processed.Add(1) == int64(len(docs)/4) {
			cancel()
		}
	}
	it := corpus.NewIterator(bytes.NewReader(data), corpus.IteratorConfig{})
	res, err := pipeline.RunStream(ctx, it, w.KB, w.Lex, cfg)
	cancel()
	waitForGoroutines(t, baseline)
	var pe *pipeline.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause %v, want context.Canceled", pe.Err)
	}
	if pe.Consumed >= len(docs) || pe.Consumed == 0 {
		t.Fatalf("consumed %d of %d — cancellation fired too early or not at all", pe.Consumed, len(docs))
	}
	clean := pipeline.Run(docs[:pe.Consumed], w.KB, w.Lex, pipeline.Config{Rho: 10, Workers: 4})
	if diffs := DiffResults(res, clean); len(diffs) > 0 {
		t.Errorf("cancelled stream result diverges from clean run over consumed prefix:\n  %s",
			strings.Join(diffs, "\n  "))
	}
}

// TestStreamReadAheadBounded pins the memory bound of a streaming run: with
// every worker parked on its first document, each holds the one batch it
// read for itself and nobody reads ahead, so the iterator has handed out
// Workers × 64 documents and not one more.
func TestStreamReadAheadBounded(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	const batch, workers = 64, 4 // pipeline's read batch
	if len(docs) < (workers+2)*batch {
		t.Fatalf("%d documents: the fixture must outlast the first batches", len(docs))
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var first atomic.Int64
	cfg := pipeline.Config{Rho: 10, Workers: workers}
	cfg.Fault = func(int, *corpus.Document) {
		if first.Add(1) <= workers { // first document of each worker's first batch
			parked <- struct{}{}
			<-release
		}
	}
	it := corpus.NewIterator(bytes.NewReader(corpusJSONL(t, docs)), corpus.IteratorConfig{})
	done := make(chan error, 1)
	go func() {
		_, err := pipeline.RunStream(context.Background(), it, w.KB, w.Lex, cfg)
		done <- err
	}()
	for i := 0; i < workers; i++ {
		<-parked
	}
	// Every worker is parked inside Fault, so nobody is touching the iterator.
	if got := it.Stats().Docs; got != workers*batch {
		t.Errorf("iterator handed out %d documents with %d workers parked, want %d", got, workers, workers*batch)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("released run failed: %v", err)
	}
}

// cancelAtReader passes R through a few hundred bytes at a time and cancels
// the run once N bytes are out — a signal arriving while a worker is
// part-way through filling its batch.
type cancelAtReader struct {
	R      io.Reader
	N      int64
	Cancel context.CancelFunc
}

func (c *cancelAtReader) Read(p []byte) (int, error) {
	if len(p) > 256 {
		p = p[:256]
	}
	n, err := c.R.Read(p)
	if c.N -= int64(n); c.N <= 0 {
		c.Cancel()
	}
	return n, err
}

// TestStreamStopsInsideBatch ends the stream at a document that is neither
// the first nor the last of a hand-off batch — by a strict malformed line,
// by a dying reader, by a cancellation — on a corpus that is not a whole
// number of batches either. Each must return a *PartialError whose result
// is the clean run over docs[:Consumed], with nothing left running.
func TestStreamStopsInsideBatch(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	const batch = 64       // pipeline's read batch
	const k = 5*batch + 21 // documents ahead of the stop
	if len(docs)%batch == 0 || len(docs) < k+2*batch {
		t.Fatalf("%d documents: the fixture must end inside a batch, well past document %d", len(docs), k)
	}
	head, tail := corpusJSONL(t, docs[:k]), corpusJSONL(t, docs[k:])
	whole := append(append([]byte(nil), head...), tail...)
	malformed := append(append(append([]byte(nil), head...), "{not json}\n"...), tail...)

	cases := []struct {
		name   string
		reader func(context.CancelFunc) io.Reader
		cause  func(error) bool
		exact  bool // Consumed must be k, not merely inside the corpus
	}{
		{"malformed line", func(context.CancelFunc) io.Reader { return bytes.NewReader(malformed) },
			func(err error) bool {
				var le *corpus.LineError
				return errors.As(err, &le) && le.Line == k+1
			}, true},
		{"reader failure", func(context.CancelFunc) io.Reader {
			return &FailingReader{R: bytes.NewReader(whole), N: int64(len(head) + 10)}
		}, func(err error) bool { return errors.Is(err, ErrInjected) }, true},
		{"cancellation", func(cancel context.CancelFunc) io.Reader {
			return &cancelAtReader{R: bytes.NewReader(whole), N: int64(len(head)), Cancel: cancel}
		}, func(err error) bool { return errors.Is(err, context.Canceled) }, false},
	}
	for _, workers := range []int{1, 2, 8} {
		for _, tc := range cases {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			it := corpus.NewIterator(tc.reader(cancel), corpus.IteratorConfig{})
			res, err := pipeline.RunStream(ctx, it, w.KB, w.Lex,
				pipeline.Config{Rho: 10, Workers: workers})
			cancel()
			waitForGoroutines(t, baseline)
			var pe *pipeline.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("workers %d, %s: want *PartialError, got %v", workers, tc.name, err)
			}
			if !tc.cause(err) {
				t.Errorf("workers %d, %s: unexpected cause %v", workers, tc.name, pe.Err)
			}
			if tc.exact && pe.Consumed != k {
				t.Errorf("workers %d, %s: consumed %d documents, %d precede the stop", workers, tc.name, pe.Consumed, k)
			}
			if pe.Consumed == 0 || pe.Consumed >= len(docs) || pe.Processed != pe.Consumed {
				t.Fatalf("workers %d, %s: consumed %d, processed %d of %d", workers, tc.name, pe.Consumed, pe.Processed, len(docs))
			}
			clean := pipeline.Run(docs[:pe.Consumed], w.KB, w.Lex, pipeline.Config{Rho: 10, Workers: 4})
			if diffs := DiffResults(res, clean); len(diffs) > 0 {
				t.Errorf("workers %d, %s: partial result diverges from clean run over consumed prefix:\n  %s",
					workers, tc.name, strings.Join(diffs, "\n  "))
			}
		}
	}
}

// TestLenientStreamQuarantineSequence mixes skipped lines and panicking
// documents into every batch: a skipped line takes no sequence number, so
// the quarantine log must name exactly the selector's indices into the
// valid documents, and the rest must match the clean run over survivors.
func TestLenientStreamQuarantineSequence(t *testing.T) {
	w := NewWorld(1, diffScale)
	docs := w.Docs()
	kept, faulted := Partition(docs, chaosSeed, chaosRate)
	clean := pipeline.Run(kept, w.KB, w.Lex, pipeline.Config{Rho: 10, Workers: 4})

	var buf bytes.Buffer
	garbage := 0
	for i := range docs {
		if i%5 == 0 {
			buf.WriteString("{\"URL\":\"cut off\n")
			garbage++
		}
		if err := corpus.WriteJSONL(&buf, docs[i:i+1]); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		it := corpus.NewIterator(bytes.NewReader(buf.Bytes()), corpus.IteratorConfig{Lenient: true})
		res, err := pipeline.RunStream(context.Background(), it, w.KB, w.Lex,
			pipeline.Config{Rho: 10, Workers: workers, Fault: PanicFault(chaosSeed, chaosRate)})
		if err != nil {
			t.Fatalf("workers %d: lenient faulted stream failed: %v", workers, err)
		}
		if res.SkippedLines != int64(garbage) {
			t.Errorf("workers %d: skipped %d lines, injected %d", workers, res.SkippedLines, garbage)
		}
		if len(res.Quarantined) != len(faulted) {
			t.Fatalf("workers %d: quarantined %d documents, selector picked %d", workers, len(res.Quarantined), len(faulted))
		}
		for i, q := range res.Quarantined {
			if q.Doc != faulted[i] {
				t.Errorf("workers %d: quarantine %d is sequence number %d, want %d", workers, i, q.Doc, faulted[i])
			}
		}
		if diffs := DiffResults(stripQuarantine(res), clean); len(diffs) > 0 {
			t.Errorf("workers %d: faulted lenient stream diverges from clean run over survivors:\n  %s",
				workers, strings.Join(diffs, "\n  "))
		}
	}
}
