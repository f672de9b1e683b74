package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/stats"
)

// TestPipelineSurvivesGarbageInput is the failure-injection test: the
// pipeline must neither panic nor fabricate evidence when fed degenerate
// or adversarial documents.
func TestPipelineSurvivesGarbageInput(t *testing.T) {
	base, lex, _ := world(t, 0.1)
	rng := stats.NewRNG(1234)

	garbage := []corpus.Document{
		{Text: ""},
		{Text: "     \n\t  "},
		{Text: "...!!!???,,,;;;"},
		{Text: strings.Repeat("a ", 500)},
		{Text: strings.Repeat("kitten ", 200)},                // entity spam, no predicates
		{Text: "is is is is are are not not never never"},     // function-word soup
		{Text: "cute cute cute cute"},                         // adjective soup, no entity
		{Text: "Kittens Kittens Kittens are are cute cute."},  // stutter
		{Text: "kitten spider kitten spider kitten spider"},   // bare mention list
		{Text: "The the a an and or but not kitten."},         //
		{Text: "Kittens are cute" + strings.Repeat("!", 100)}, // punctuation flood
		{Text: "I DON'T THINK THAT KITTENS ARE NEVER CUTE."},  // all caps
	}
	// Random token salad drawn from the lexicon's word classes.
	words := []string{"kitten", "is", "not", "cute", "the", "a", "and",
		"for", "very", "never", "I", "think", "that", ",", ".", "spider"}
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(30)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = words[rng.Intn(len(words))]
		}
		garbage = append(garbage, corpus.Document{Text: strings.Join(parts, " ")})
	}

	res := Run(garbage, base, lex, Config{Rho: 1})
	if res.Documents != len(garbage) {
		t.Fatalf("documents = %d", res.Documents)
	}
	// The stutter/caps documents may legitimately yield a handful of
	// statements; the bulk of the garbage must yield nothing.
	if res.TotalStatements > 40 {
		t.Fatalf("garbage produced %d statements", res.TotalStatements)
	}
}

// TestPipelineMixedGarbageAndSignal verifies that garbage mixed into a
// real corpus does not change the decisions.
func TestPipelineMixedGarbageAndSignal(t *testing.T) {
	base, lex, snap := world(t, 1)
	clean := Run(snap.Documents, base, lex, Config{Rho: 20})

	mixed := append([]corpus.Document{}, snap.Documents...)
	for i := 0; i < 100; i++ {
		mixed = append(mixed, corpus.Document{Text: "!!! ??? ,,, the the the"})
	}
	dirty := Run(mixed, base, lex, Config{Rho: 20})

	gc, ok1 := clean.Group("animal", "cute")
	gd, ok2 := dirty.Group("animal", "cute")
	if !ok1 || !ok2 {
		t.Fatal("group missing")
	}
	for i := range gc.Entities {
		if gc.Entities[i].Opinion != gd.Entities[i].Opinion {
			t.Fatalf("garbage changed the opinion of entity %d", i)
		}
	}
}

// TestPipelineQuarantinesPanickingDocs asserts the per-document panic
// boundary: faulted documents land in Result.Quarantined in index order
// with the panic value as reason, and everything else is processed as if
// they were never in the corpus.
func TestPipelineQuarantinesPanickingDocs(t *testing.T) {
	base, lex, snap := world(t, 0.3)
	docs := snap.Documents
	cfg := Config{Rho: 20, Workers: 8}
	cfg.Fault = func(i int, _ *corpus.Document) {
		if i%17 == 0 {
			panic("boom")
		}
	}
	res, err := RunContext(context.Background(), docs, base, lex, cfg)
	if err != nil {
		t.Fatalf("quarantine must not fail the run: %v", err)
	}
	want := (len(docs) + 16) / 17
	if len(res.Quarantined) != want {
		t.Fatalf("quarantined %d documents, want %d", len(res.Quarantined), want)
	}
	for qi, q := range res.Quarantined {
		if q.Doc != qi*17 {
			t.Errorf("quarantine %d is doc %d, want %d", qi, q.Doc, qi*17)
		}
		if q.Reason != "panic: boom" {
			t.Errorf("quarantine reason = %q", q.Reason)
		}
	}
	if res.Documents != len(docs)-want {
		t.Errorf("Documents = %d, want %d", res.Documents, len(docs)-want)
	}

	kept := make([]corpus.Document, 0, len(docs))
	for i := range docs {
		if i%17 != 0 {
			kept = append(kept, docs[i])
		}
	}
	clean := Run(kept, base, lex, Config{Rho: 20, Workers: 1})
	if res.TotalStatements != clean.TotalStatements || res.Sentences != clean.Sentences {
		t.Errorf("faulted run: %d statements / %d sentences, clean run over survivors: %d / %d",
			res.TotalStatements, res.Sentences, clean.TotalStatements, clean.Sentences)
	}
}

// TestPipelineCancelNoDoubleCount cancels mid-run and asserts the partial
// result counted every committed statement exactly once: its evidence
// store is bit-identical to a fresh single-threaded run over the consumed
// prefix.
func TestPipelineCancelNoDoubleCount(t *testing.T) {
	base, lex, snap := world(t, 0.5)
	docs := snap.Documents
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	cfg := Config{Rho: 20, Workers: 4}
	cfg.Fault = func(int, *corpus.Document) {
		if seen.Add(1) == int64(len(docs)/2) {
			cancel()
		}
	}
	res, err := RunContext(ctx, docs, base, lex, cfg)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause = %v, want context.Canceled", pe.Err)
	}
	if pe.Consumed >= len(docs) || pe.Consumed < len(docs)/2 {
		t.Fatalf("consumed %d of %d — cancellation fired too early or not at all", pe.Consumed, len(docs))
	}
	if pe.Processed != res.Documents || res.Documents != pe.Consumed {
		t.Fatalf("processed %d, consumed %d, Documents %d — inconsistent", pe.Processed, pe.Consumed, res.Documents)
	}

	replay := Run(docs[:pe.Consumed], base, lex, Config{Rho: 20, Workers: 1})
	if res.TotalStatements != replay.TotalStatements {
		t.Fatalf("partial run counted %d statements, replay of consumed prefix %d",
			res.TotalStatements, replay.TotalStatements)
	}
	a, b := res.Store.Snapshot(), replay.Store.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("partial store has %d keys, replay %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("store entry %d: %+v vs %+v — a statement was double- or under-counted", i, a[i], b[i])
		}
	}
}

// TestClaimChecksCtxOnlyBeforeClaiming: a worker consults ctx before it
// claims a document and never after, so every index the counter gave out
// reached a worker, and the consumed prefix stopped() reports was all
// processed. The context turns cancelled on its second Err call, the
// worst moment: right after the first check passed.
func TestClaimChecksCtxOnlyBeforeClaiming(t *testing.T) {
	src := &sliceSource{ctx: &cancelsAfter{Context: context.Background(), checks: 1},
		docs: make([]corpus.Document, 3)}
	handed := 0
	for claim := src.worker(); ; handed++ {
		if _, _, ok := claim(); !ok {
			break
		}
	}
	if consumed, _, err := src.stopped(); consumed != handed || !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped() reports %d consumed (err %v); %d documents were handed out", consumed, err, handed)
	}
}

// cancelsAfter is a context that reads as live for its first checks Err
// calls and as cancelled from then on.
type cancelsAfter struct {
	context.Context
	checks int
}

func (c *cancelsAfter) Err() error {
	if c.checks > 0 {
		c.checks--
		return nil
	}
	return context.Canceled
}
