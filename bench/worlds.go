package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/corpus"
	"repro/internal/incremental"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
)

// sizing holds every constant that decides how much work a workload does.
// The two world scales are one constant each (webScale, tailPerType), so
// a tighter time budget is met by changing one number.
type sizing struct {
	// Web world: kb.Default + corpus.Table2Specs generated at webScale
	// and cut to the first webDocs documents, mined with ρ = webRho. How
	// many documents the generator emits depends on the seed; the cut
	// makes every seed the same amount of work.
	webScale float64
	webDocs  int
	webRho   int64
	// Long-tail world: RandomDomains(tailTypes, tailPerType) +
	// corpus.RandomSpecs generated at tailScale and cut to tailDocs
	// documents, mined with ρ = tailRho.
	tailTypes   int
	tailPerType int
	tailScale   float64
	tailDocs    int
	tailRho     int64
	// trickleDocs is the epoch size of longtail_trickle; bulkShare of the
	// corpus is ingested before the first timed epoch.
	trickleDocs int
	bulkShare   float64
	// minReps is the least number of timed reps of a run, however short
	// -seconds is, and minEpochs that of refresh epochs: the median epoch
	// latency needs more samples than a rep-per-second workload gets.
	// setups is how often a run repeats its set-up.
	minReps   int
	minEpochs int
	setups    int
}

var (
	// fullSizing: 300k documents / 50 MB for the web world (a CLI rep is
	// ≈1.2 s on two cores, so 10 s hold 8 reps) and 1000 types × 600
	// entities for the long tail (an 8-document refresh epoch is ≈180 ms,
	// so 10 s hold 55 epochs).
	fullSizing = sizing{
		webScale: 120, webDocs: 300_000, webRho: 100,
		tailTypes: 1000, tailPerType: 600, tailScale: 0.3, tailDocs: 10_000, tailRho: 10,
		trickleDocs: 8, bulkShare: 0.9,
		minReps: 5, minEpochs: 40, setups: 3,
	}
	// quickSizing is the smoke-test size: every code path, no timing value.
	quickSizing = sizing{
		webScale: 0.5, webDocs: 1400, webRho: 20,
		tailTypes: 20, tailPerType: 50, tailScale: 0.3, tailDocs: 200, tailRho: 10,
		trickleDocs: 8, bulkShare: 0.9,
		minReps: 1, minEpochs: 1, setups: 1,
	}
)

// tailProperties is the adjective pool the long-tail (type, property)
// combinations draw from, as in the Appendix-D experiment.
var tailProperties = []string{"big", "rare", "popular", "dangerous", "cheap",
	"boring", "exciting", "vital", "solid", "pretty", "cute", "fast",
	"quiet", "young", "friendly", "crazy", "cool", "deadly",
	"addictive", "hectic"}

// world is one workload's generated input: the knowledge base and lexicon
// the program mines against, the documents, and the same documents as a
// JSONL file (what cmd/surveyor reads and what the corpus layer decodes).
type world struct {
	base *kb.KB
	lex  *lexicon.Lexicon
	docs []corpus.Document
	path string
	size int64 // bytes of the JSONL file
	rho  int64
	// perType is the entity count of every type (long tail only): a
	// modelled group must classify exactly this many entities.
	perType int
	// miner has ingested the bulk of the corpus (longtail_trickle only).
	miner *incremental.Miner
	// next is the first document the miner has not seen.
	next int
}

// buildWeb generates the paper's evaluation world — the shape of its
// production run: few groups, nearly all work in NLP extraction.
func buildWeb(seed uint64, sz sizing, dir string) (*world, error) {
	base := kb.Default(seed)
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	snap := corpus.NewGenerator(base, corpus.Table2Specs(),
		corpus.Config{Seed: seed, Scale: sz.webScale}).Generate()
	w := &world{base: base, lex: lex, docs: snap.Documents, rho: sz.webRho}
	return w, w.writeJSONL(filepath.Join(dir, "web.jsonl"), sz.webDocs)
}

// buildTail generates the Appendix-D world: many types of rarely
// mentioned entities, so the opinion table follows entities, not
// statements, and grouping, EM and the index do most of the work.
func buildTail(seed uint64, sz sizing, dir string) (*world, error) {
	b := kb.NewBuilder(seed)
	types := b.RandomDomains(sz.tailTypes, sz.tailPerType)
	base := b.KB()
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	snap := corpus.NewGenerator(base, corpus.RandomSpecs(types, tailProperties, seed),
		corpus.Config{Seed: seed, Scale: sz.tailScale}).Generate()
	w := &world{base: base, lex: lex, docs: snap.Documents, rho: sz.tailRho, perType: sz.tailPerType}
	return w, w.writeJSONL(filepath.Join(dir, "tail.jsonl"), sz.tailDocs)
}

// writeJSONL cuts the corpus to its first n documents (the generator
// shuffles, so a prefix is a uniform sample), writes them to path and reads
// the file back once, so the first timed rep finds it in the page cache
// like every later one.
func (w *world) writeJSONL(path string, n int) error {
	if len(w.docs) < n {
		return fmt.Errorf("the generator emitted %d documents, the sizing needs %d", len(w.docs), n)
	}
	w.docs = w.docs[:n]
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := corpus.WriteJSONL(f, w.docs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w.path = path
	w.size, err = io.Copy(io.Discard, f)
	return err
}

// setUp builds a world sz.setups times and returns the last one with the
// duration of every build: one build's time is too noisy for the bound
// setup_s carries, so a run reports the median.
func setUp(sz sizing, build func() (*world, error)) (*world, []float64, error) {
	var w *world
	var took []float64
	for i := 0; i < sz.setups; i++ {
		w = nil
		runtime.GC() // the previous build's world is garbage, not part of this one
		start := time.Now()
		var err error
		if w, err = build(); err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return w, took, nil
}
