package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/annotate"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
)

// Annotate runs the NLP front end over the corpus in parallel, producing
// the annotated-snapshot representation the paper's extraction consumes.
// Use RunAnnotated to extract from the result — repeatedly, e.g. for the
// Table-4 pattern-version sweep, without re-parsing.
func Annotate(docs []corpus.Document, base *kb.KB, lex *lexicon.Lexicon, workers int) []annotate.Document {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	annotator := annotate.New(base, lex)
	out := make([]annotate.Document, len(docs))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < min(workers, len(docs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					break
				}
				out[i] = annotator.Annotate(docs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// extractOnlyProcessors returns the per-worker factory of processors over
// pre-annotated documents: extraction only.
func extractOnlyProcessors(lex *lexicon.Lexicon, cfg Config) func() processor[annotate.Document] {
	extractor := extract.NewVersion(lex, cfg.Version)
	return func() processor[annotate.Document] {
		var stmts, buf []extract.Statement
		return func(_ int, doc *annotate.Document) ([]extract.Statement, int64) {
			buf = buf[:0]
			for si := range doc.Sentence {
				s := &doc.Sentence[si]
				if s.Tree == nil || len(s.Mentions) == 0 {
					continue
				}
				stmts = extractor.ExtractInto(stmts[:0], s.Tree, s.Mentions)
				buf = append(buf, stmts...)
			}
			return buf, int64(len(doc.Sentence))
		}
	}
}

// RunAnnotated executes extraction, grouping, and per-group EM over an
// already-annotated corpus. Results are identical to Run over the raw
// documents with the same configuration. Delegates to RunAnnotatedContext
// with a background context.
func RunAnnotated(docs []annotate.Document, base *kb.KB, lex *lexicon.Lexicon, cfg Config) *Result {
	//lint:allow ctxflow documented non-cancellable entry point; callers wanting cancellation use RunAnnotatedContext
	res, _ := RunAnnotatedContext(context.Background(), docs, base, lex, cfg)
	return res
}

// RunAnnotatedContext is RunAnnotated with document-granular cancellation
// and panic quarantine, sharing the semantics of RunContext: a cancelled
// run models its committed evidence and returns the partial result inside
// a *PartialError; a panicking document is quarantined and the run
// continues. Config.Fault is ignored on this path — the hook takes raw
// documents, which an annotated corpus no longer has.
func RunAnnotatedContext(ctx context.Context, docs []annotate.Document, base *kb.KB, lex *lexicon.Lexicon, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	return run(cfg, base, len(docs), min(cfg.Workers, len(docs)),
		&sliceSource[annotate.Document]{ctx: ctx, docs: docs}, extractOnlyProcessors(lex, cfg))
}
