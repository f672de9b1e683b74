// Package pipeline is a ctxflow fixture: propagation, fresh-context,
// and claim-commit cases in a worker package.
package pipeline

import (
	"context"
	"sync/atomic"
)

func process(ctx context.Context, doc int) {}

func work(doc int) {}

// Propagate passes its ctx straight through: clean.
func Propagate(ctx context.Context, docs []int) {
	for _, d := range docs {
		process(ctx, d)
	}
}

// Derive passes a context derived from ctx: clean.
func Derive(ctx context.Context, doc int) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	process(cctx, doc)
}

// Drop receives a ctx but hands the callee a fresh one.
func Drop(ctx context.Context, doc int) {
	process(context.TODO(), doc) // want `context.TODO in a library package` `process takes a context but none of the arguments derives`
}

// Fresh mints a context with no ctx in scope at all.
func Fresh(doc int) {
	process(context.Background(), doc) // want `context.Background in a library package`
}

// Workers observes cancellation before the atomic claim — PR 5's rule —
// so a claimed document always finishes: clean.
func Workers(ctx context.Context, docs []int) {
	var next atomic.Int64
	for {
		if ctx.Err() != nil {
			break
		}
		i := int(next.Add(1)) - 1
		if i >= len(docs) {
			break
		}
		work(docs[i])
	}
}

// BadWorkers consults ctx after claiming: the claimed document might
// never commit.
func BadWorkers(ctx context.Context, docs []int) {
	var next atomic.Int64
	for {
		i := int(next.Add(1)) - 1
		if i >= len(docs) {
			break
		}
		if ctx.Err() != nil { // want `ctx consulted after the atomic work claim`
			break
		}
		work(docs[i])
	}
}

// source is the shape of the pipeline's slice source: the worker loop
// lives elsewhere and calls claim once per document.
type source struct {
	ctx  context.Context
	docs []int
	next atomic.Int64
}

// claim observes cancellation before the atomic claim: clean.
func (s *source) claim() (int, bool) {
	if s.ctx.Err() != nil {
		return 0, false
	}
	i := int(s.next.Add(1)) - 1
	return i, i < len(s.docs)
}

// badClaim consults ctx after claiming, with no loop in sight: the index
// it took is lost to every other worker.
func (s *source) badClaim() (int, bool) {
	i := int(s.next.Add(1)) - 1
	if s.ctx.Err() != nil { // want `ctx consulted after the atomic work claim`
		return 0, false
	}
	return i, i < len(s.docs)
}

// afterLoop reads ctx once its claim loop is over: the loop is the claim
// scope, the function is not. Clean.
func afterLoop(ctx context.Context, docs []int) error {
	var next atomic.Int64
	for ctx.Err() == nil {
		i := int(next.Add(1)) - 1
		if i >= len(docs) {
			break
		}
		work(docs[i])
	}
	return ctx.Err()
}
