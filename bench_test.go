// Package repro's benchmark harness: per-phase pipeline benchmarks for the
// Section-7.1 analysis, the hot paths, the distributed and incremental
// paths, and the timing side of two DESIGN.md ablations. Every quality
// figure (each table, figure and ablation) is `cmd/experiments` output,
// kept in EXPERIMENTS.md. Run with:
//
//	go test -bench=. -benchmem
//
// Two things here gate rather than report, both on numbers that do not
// depend on the machine: TestAllocBudgets (tier-1) holds allocs/op of six
// hot-path benchmarks under fixed budgets, and the ObsOverhead pair fails
// itself past overheadBound. Throughput, memory and per-layer time are the
// business of the benchmark module in bench/.
package repro

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/evidence"
	"repro/internal/experiments"
	"repro/internal/extract"
	"repro/internal/incremental"
	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/tagger"
	"repro/internal/wire"
)

// benchScale sizes the snapshots the pipeline benchmarks run on.
const benchScale = 0.4

var benchWorld *experiments.World

func world(b *testing.B) *experiments.World {
	b.Helper()
	if benchWorld == nil {
		benchWorld = experiments.BuildEvalWorld(experiments.WorldConfig{Seed: 1, Scale: benchScale})
	}
	return benchWorld
}

// --- Section 7.1: pipeline phases -------------------------------------------

// BenchmarkPipelinePhases measures the end-to-end pipeline (extraction,
// grouping, EM) on a fresh snapshot per iteration batch.
func BenchmarkPipelinePhases(b *testing.B) {
	base := kb.Default(1)
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	snap := corpus.NewGenerator(base, corpus.Table2Specs(),
		corpus.Config{Seed: 2, Scale: benchScale}).Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := pipeline.Run(snap.Documents, base, lex, pipeline.Config{Rho: int64(40 * benchScale)})
		if res.TotalStatements == 0 {
			b.Fatal("no statements")
		}
	}
	b.ReportMetric(float64(len(snap.Documents)), "docs/run")
}

// BenchmarkJSONLDecode measures the ingest path every -in and -stream run
// starts with: corpus.Iterator over an in-memory JSONL snapshot, line
// splitting and document decoding included. MB/s is against the snapshot's
// bytes; allocs/op over docs/run is the decoder's allocations per document
// (one per non-empty string field), which TestAllocBudgets holds.
func BenchmarkJSONLDecode(b *testing.B) {
	snap := corpus.NewGenerator(kb.Default(1), corpus.Table2Specs(),
		corpus.Config{Seed: 2, Scale: benchScale}).Generate()
	var buf bytes.Buffer
	if err := corpus.WriteJSONL(&buf, snap.Documents); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := corpus.NewIterator(bytes.NewReader(data), corpus.IteratorConfig{})
		docs := 0
		for it.Next() {
			docs++
		}
		if err := it.Err(); err != nil || docs != len(snap.Documents) {
			b.Fatalf("decoded %d of %d documents: %v", docs, len(snap.Documents), err)
		}
	}
	b.ReportMetric(float64(len(snap.Documents)), "docs/run")
}

// BenchmarkIncrementalRefit contrasts the incremental miner's per-epoch
// cost with the full re-model a batch system pays for every refresh.
// "epoch-trickle" re-ingests a four-document batch into a miner already
// holding the full corpus: extraction of four documents plus EM over only
// the dirty groups. "batch-remodel" re-groups and re-fits the entire
// cumulative store — what refreshing without dirty tracking costs. EM runs
// a fixed iteration budget (tolerance 0) so the measured cost is exactly
// tuples × iterations, free of convergence drift; the refit-tuples/op
// metrics make the proportionality visible next to the time/op gap.
func BenchmarkIncrementalRefit(b *testing.B) {
	base := kb.Default(1)
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	snap := corpus.NewGenerator(base, corpus.Table2Specs(),
		corpus.Config{Seed: 2, Scale: benchScale}).Generate()
	trickle := snap.Documents[:4]
	cfg := pipeline.Config{Rho: int64(40 * benchScale)}
	cfg.EM = core.DefaultEMConfig()
	cfg.EM.MaxIterations = 10
	cfg.EM.Tolerance = 0

	m := incremental.New(base, lex, cfg)
	if _, err := m.Ingest(context.Background(), snap.Documents); err != nil {
		b.Fatal(err)
	}
	modelled := len(m.Snapshot().Groups)
	if modelled == 0 {
		b.Fatal("bulk ingest modelled no groups")
	}

	b.Run("epoch-trickle", func(b *testing.B) {
		var tuples, groups int64
		for i := 0; i < b.N; i++ {
			st, err := m.Ingest(context.Background(), trickle)
			if err != nil {
				b.Fatal(err)
			}
			tuples += st.RefitTuples
			groups += int64(st.RefitGroups)
		}
		b.ReportMetric(float64(tuples)/float64(b.N), "refit-tuples/op")
		b.ReportMetric(float64(groups)/float64(b.N), "refit-groups/op")
	})
	b.Run("batch-remodel", func(b *testing.B) {
		store := m.Snapshot().Store
		var tuples int64
		for i := 0; i < b.N; i++ {
			res := pipeline.ReduceStore(store, base, cfg, pipeline.ReduceStats{})
			if len(res.Groups) < modelled {
				b.Fatal("batch remodel lost groups")
			}
			tuples = 0
			for gi := range res.Groups {
				tuples += int64(len(res.Groups[gi].Entities))
			}
		}
		b.ReportMetric(float64(tuples), "refit-tuples/op")
	})
}

// overheadBound is the on/off time ratio past which the paired overhead
// benchmarks fail themselves. On the shared 2-vCPU box, neighbours
// stretching a pair from 14 ms to as much as 50, untouched code read
// 0.94–1.08 over 33 runs of each pair; with a time.Sleep(time.Microsecond)
// per document behind Obs != nil, ObsOverhead reads 2.5. The bound is
// three times the widest excursion seen: it stops a sleep, a syscall or a
// contended lock on the per-document path, not a 2% creep, which no run
// on this box resolves.
const overheadBound = 1.25

// minGatedPairs is how many pairs a run needs before its median is
// judged: the harness's calibration calls (b.N = 1, …) are too short.
const minGatedPairs = 10

// benchOverhead is the body of the paired overhead benchmarks. One
// iteration times off and on back to back, the order swapping every
// iteration so neither always runs second; the metric is the median of
// the per-pair on/off ratios, which one preempted pair does not move.
// ns/op is therefore the time of a pair, not of a run.
func benchOverhead(b *testing.B, off, on func()) {
	timed := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start))
	}
	ratios := make([]float64, b.N)
	b.ResetTimer()
	for i := range ratios {
		var tOff, tOn float64
		if i%2 == 0 {
			tOff, tOn = timed(off), timed(on)
		} else {
			tOn, tOff = timed(on), timed(off)
		}
		ratios[i] = tOn / tOff
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	b.ReportMetric(median, "on/off")
	if b.N >= minGatedPairs && median > overheadBound {
		b.Fatalf("on/off = %.3f over %d pairs, bound %.2f", median, b.N, overheadBound)
	}
}

// BenchmarkObsOverhead measures the cost of the observability layer on
// the end-to-end pipeline: "off" runs with no sink attached (every
// recording call hits the nil-receiver fast path), "on" runs with a live
// metrics registry. The pair is the blocking perf step of CI: past
// overheadBound it fails itself (benchOverhead).
func BenchmarkObsOverhead(b *testing.B) {
	base := kb.Default(1)
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	snap := corpus.NewGenerator(base, corpus.Table2Specs(),
		corpus.Config{Seed: 2, Scale: benchScale}).Generate()
	run := func(o *obs.RunObs) {
		res := pipeline.Run(snap.Documents, base, lex,
			pipeline.Config{Rho: int64(40 * benchScale), Obs: o})
		if res.TotalStatements == 0 {
			b.Fatal("no statements")
		}
	}
	on := &obs.RunObs{Metrics: obs.NewRegistry()}
	benchOverhead(b, func() { run(nil) }, func() { run(on) })
}

// BenchmarkExtractionThroughput isolates the NLP front end as a pipeline
// worker runs it: split/tag/link/parse/extract through the *Into calls with
// one set of reused scratch buffers, parsing only sentences that link an
// entity. One op is one sentence (tokenizing its document included).
func BenchmarkExtractionThroughput(b *testing.B) {
	base := kb.Default(1)
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	docs := corpus.NewGenerator(base, corpus.Table2Specs(),
		corpus.Config{Seed: 3, Scale: 0.2}).Generate().Documents
	pt := pos.New(lex)
	dp := depparse.New(lex)
	et := tagger.New(base, lex)
	ex := extract.NewVersion(lex, extract.V4)

	var (
		sents    []token.Sentence
		toks     []token.Token
		tagged   []pos.Tagged
		mentions []tagger.Mention
		stmts    []extract.Statement
		psc      depparse.Scratch
		tsc      tagger.Scratch
	)
	b.ReportAllocs()
	b.ResetTimer()
	n, done := 0, 0
	for d := 0; done < b.N; d++ {
		sents, toks = token.SplitSentencesInto(sents[:0], toks[:0], docs[d%len(docs)].Text)
		for _, sent := range sents {
			done++
			tagged = pt.TagInto(tagged[:0], sent)
			mentions = et.TagInto(mentions[:0], &tsc, tagged)
			if len(mentions) == 0 {
				continue
			}
			stmts = ex.ExtractInto(stmts[:0], dp.ParseInto(&psc, tagged), mentions)
			n += len(stmts)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(done), "ns/sentence")
	if b.N > 1000 && n == 0 {
		b.Fatal("no extractions at all")
	}
}

// BenchmarkEMScaling verifies the Section-6 claim: EM cost is linear in
// the number of entities and independent of the number of mentions.
func BenchmarkEMScaling(b *testing.B) {
	params := core.Params{PA: 0.9, NpPlus: 40, NpMinus: 3}
	for _, m := range []int{100, 1000, 10000} {
		rng := stats.NewRNG(uint64(m))
		opinions := make([]bool, m)
		for i := range opinions {
			opinions[i] = rng.Bernoulli(0.3)
		}
		tuples := core.GenerateTuples(params, opinions, rng)
		b.Run(sizeName("entities", m), func(b *testing.B) {
			cfg := core.DefaultEMConfig()
			cfg.MaxIterations = 10
			cfg.Tolerance = 0
			for i := 0; i < b.N; i++ {
				core.FitEM(tuples, cfg)
			}
		})
	}
	// Mention-count independence: multiply every count by 1000.
	rng := stats.NewRNG(99)
	opinions := make([]bool, 1000)
	for i := range opinions {
		opinions[i] = rng.Bernoulli(0.3)
	}
	tuples := core.GenerateTuples(params, opinions, rng)
	big := make([]core.Tuple, len(tuples))
	for i, c := range tuples {
		big[i] = core.Tuple{Pos: c.Pos * 1000, Neg: c.Neg * 1000}
	}
	b.Run("entities-1000-mentions-x1000", func(b *testing.B) {
		cfg := core.DefaultEMConfig()
		cfg.MaxIterations = 10
		cfg.Tolerance = 0
		for i := 0; i < b.N; i++ {
			core.FitEM(big, cfg)
		}
	})
}

func sizeName(unit string, n int) string {
	switch {
	case n >= 1000:
		return unit + "-" + itoa(n/1000) + "k"
	default:
		return unit + "-" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Ablations (DESIGN.md) ---------------------------------------------------

// BenchmarkAblationPoissonVsMultinomial compares the Poisson-product
// posterior against the exact trinomial.
func BenchmarkAblationPoissonVsMultinomial(b *testing.B) {
	m := core.Model{Params: core.Params{PA: 0.9, NpPlus: 100, NpMinus: 5}}
	tuples := []core.Tuple{
		{Pos: 0, Neg: 0}, {Pos: 60, Neg: 3}, {Pos: 10, Neg: 10},
		{Pos: 90, Neg: 1}, {Pos: 5, Neg: 5},
	}
	b.Run("poisson", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range tuples {
				m.PosteriorPositive(c)
			}
		}
	})
	b.Run("exact-trinomial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range tuples {
				m.PosteriorPositiveExact(c, 1_000_000)
			}
		}
	})
}

// BenchmarkAblationChecksOnOff measures the intrinsicness filter's cost at
// the extractor level; its effect on volume is a row of `cmd/experiments
// ablations`.
func BenchmarkAblationChecksOnOff(b *testing.B) {
	base := kb.Default(1)
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	snap := corpus.NewGenerator(base, corpus.Table2Specs(),
		corpus.Config{Seed: 5, Scale: 0.2}).Generate()
	pt := pos.New(lex)
	dp := depparse.New(lex)
	et := tagger.New(base, lex)

	type prepared struct {
		tagged   []pos.Tagged
		tree     *depparse.Tree
		mentions []tagger.Mention
	}
	var prep []prepared
	for _, d := range snap.Documents {
		sents, _ := token.SplitSentencesInto(nil, nil, d.Text)
		for _, s := range sents {
			tagged := pt.TagInto(nil, s)
			prep = append(prep, prepared{tagged, dp.ParseInto(new(depparse.Scratch), tagged), et.TagInto(nil, new(tagger.Scratch), tagged)})
		}
	}
	for name, cfg := range map[string]extract.Config{
		"checks-on":  extract.VersionConfig(extract.V4),
		"checks-off": {UseAmod: true, UseAcomp: true, ToBeOnly: true},
	} {
		ex := extract.New(lex, cfg)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := prep[i%len(prep)]
				ex.ExtractInto(nil, p.tree, p.mentions)
			}
		})
	}
}

// --- Micro-benchmarks of the hot paths ---------------------------------------

func BenchmarkTokenize(b *testing.B) {
	text := "I don't think that San Francisco is a big city, but everyone agrees that it is beautiful."
	var toks []token.Token
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		toks = token.TokenizeInto(toks[:0], text)
	}
}

func BenchmarkParse(b *testing.B) {
	lex := lexicon.Default()
	pt := pos.New(lex)
	dp := depparse.New(lex)
	sents, _ := token.SplitSentencesInto(nil, nil, "I don't think that snakes are never dangerous animals.")
	tagged := pt.TagInto(nil, sents[0])
	var sc depparse.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.ParseInto(&sc, tagged)
	}
}

func BenchmarkPosterior(b *testing.B) {
	m := core.Model{Params: core.Params{PA: 0.9, NpPlus: 100, NpMinus: 5}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.PosteriorPositive(core.Tuple{Pos: i % 100, Neg: i % 7})
	}
}

func BenchmarkEvidenceLocalAdd(b *testing.B) {
	l := evidence.NewLocal()
	st := extract.Statement{Entity: 42, Property: "cute", Polarity: extract.Positive}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Entity = kb.EntityID(i % 1000)
		l.Add(st)
	}
}

// benchEvidenceStore builds a deterministic store shaped like a real run:
// every KB entity, a skewed property distribution, mixed polarities.
func benchEvidenceStore(base *kb.KB, seed uint64, statements int) *evidence.Store {
	props := []string{"cute", "big", "warm", "dangerous", "beautiful", "old",
		"crowded", "cheap", "quiet", "fast", "noisy", "clean", "very big",
		"safe", "pretty", "green", "famous", "remote", "rainy", "flat"}
	rng := stats.NewRNG(seed)
	s, l := evidence.NewStore(), evidence.NewLocal()
	st := extract.Statement{}
	for i := 0; i < statements; i++ {
		st.Entity = kb.EntityID(rng.Intn(base.Len()))
		st.Property = props[rng.Intn(1+rng.Intn(len(props)))]
		st.Polarity = extract.Positive
		if rng.Bernoulli(0.25) {
			st.Polarity = extract.Negative
		}
		l.Add(st)
	}
	l.FlushTo(s)
	return s
}

// BenchmarkGroupingThroughput measures the grouping phase — a fresh
// accumulator absorbing the whole store, then the ρ filter and expansion —
// on a populated store.
func BenchmarkGroupingThroughput(b *testing.B) {
	base := kb.Default(1)
	s := benchEvidenceStore(base, 11, 200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, before := evidence.ParallelGroup(s, base, 50, 0)
		if len(groups) == 0 || before == 0 {
			b.Fatal("grouping produced nothing")
		}
	}
}

// BenchmarkStoreMergeThroughput measures folding worker-sized evidence
// shards into a shared store — the reduce step of worker-local
// aggregation.
func BenchmarkStoreMergeThroughput(b *testing.B) {
	base := kb.Default(1)
	shards := make([]*evidence.Store, 8)
	for i := range shards {
		shards[i] = benchEvidenceStore(base, uint64(20+i), 25_000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := evidence.NewStore()
		for _, src := range shards {
			dst.Merge(src)
		}
		if dst.Len() == 0 {
			b.Fatal("merge produced nothing")
		}
	}
}

// BenchmarkWireCodec measures the evidence wire codec on a run-shaped
// store: frame encode (snapshot + varint body + checksum) and validated
// decode. Throughput is reported against the encoded byte volume — the
// number that bounds what the distributed coordinator can absorb.
func BenchmarkWireCodec(b *testing.B) {
	b.Run("encode", benchWireEncode)
	b.Run("decode", benchWireDecode)
}

// wireFixture is the store both halves of BenchmarkWireCodec work on and
// its encoded frame.
var wireFixture = sync.OnceValues(func() (*evidence.Store, []byte) {
	s := benchEvidenceStore(kb.Default(1), 17, 200_000)
	var frame bytes.Buffer
	if _, err := wire.EncodeStore(&frame, s); err != nil {
		panic(err)
	}
	return s, frame.Bytes()
})

func benchWireEncode(b *testing.B) {
	s, encoded := wireFixture()
	b.ReportAllocs()
	b.SetBytes(int64(len(encoded)))
	var buf bytes.Buffer
	buf.Grow(len(encoded)) // or growing it shows in allocs/op at small b.N
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := wire.EncodeStore(&buf, s); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWireDecode(b *testing.B) {
	s, encoded := wireFixture()
	b.ReportAllocs()
	b.SetBytes(int64(len(encoded)))
	for i := 0; i < b.N; i++ {
		st, _, err := wire.DecodeStore(bytes.NewReader(encoded))
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != s.Len() {
			b.Fatal("decode lost entries")
		}
	}
}

// BenchmarkDistributedMine measures the multi-process scale-out against
// its own single-worker baseline: N workers, each a single-threaded
// in-process worker speaking the real wire protocol (LocalTransport, so
// the codec and coordination costs are included but fork/exec noise is
// not). The N4/N1 time ratio is the distribution speedup on the
// extraction-dominated pipeline.
func BenchmarkDistributedMine(b *testing.B) {
	base := kb.Default(1)
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	snap := corpus.NewGenerator(base, corpus.Table2Specs(),
		corpus.Config{Seed: 2, Scale: benchScale}).Generate()
	workerCfg := pipeline.Config{Rho: int64(40 * benchScale), Workers: 1}
	run := func(b *testing.B, shards int) {
		b.Helper()
		cfg := dist.Config{
			Shards:    shards,
			Transport: &dist.LocalTransport{Base: base, Lex: lex, Pipeline: workerCfg},
			Pipeline:  workerCfg,
		}
		for i := 0; i < b.N; i++ {
			res, failed, err := dist.Mine(context.Background(), snap.Documents, base, cfg)
			if err != nil || len(failed) != 0 {
				b.Fatalf("err=%v failed=%v", err, failed)
			}
			if res.TotalStatements == 0 {
				b.Fatal("no statements")
			}
		}
		b.ReportMetric(float64(len(snap.Documents)), "docs/run")
	}
	b.Run("N1", func(b *testing.B) { run(b, 1) })
	b.Run("N4", func(b *testing.B) { run(b, 4) })
}

// BenchmarkDistObsOverhead is the distributed twin of BenchmarkObsOverhead:
// the same 4-shard run with telemetry fully off versus on. "On" mirrors
// the single-process pair — a live metrics registry per process, no
// tracer — so the pair isolates the distributed machinery: workers
// snapshotting and shipping SVTM frames, the coordinator decoding and
// federating them. Same body, same bound: telemetry must stay write-only
// and nearly free on the distributed path too.
func BenchmarkDistObsOverhead(b *testing.B) {
	base := kb.Default(1)
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	snap := corpus.NewGenerator(base, corpus.Table2Specs(),
		corpus.Config{Seed: 2, Scale: benchScale}).Generate()
	workerCfg := pipeline.Config{Rho: int64(40 * benchScale), Workers: 1}
	run := func(lt *dist.LocalTransport, reduceCfg pipeline.Config) {
		cfg := dist.Config{Shards: 4, Transport: lt, Pipeline: reduceCfg}
		res, failed, err := dist.Mine(context.Background(), snap.Documents, base, cfg)
		if err != nil || len(failed) != 0 {
			b.Fatalf("err=%v failed=%v", err, failed)
		}
		if res.TotalStatements == 0 {
			b.Fatal("no statements")
		}
	}
	quiet := &dist.LocalTransport{Base: base, Lex: lex, Pipeline: workerCfg}
	telemetry := &dist.LocalTransport{Base: base, Lex: lex, Pipeline: workerCfg,
		WorkerObs: func(int) *obs.RunObs { return &obs.RunObs{Metrics: obs.NewRegistry()} }}
	benchOverhead(b,
		func() { run(quiet, workerCfg) },
		func() {
			reduceCfg := workerCfg
			reduceCfg.Obs = &obs.RunObs{Metrics: obs.NewRegistry()}
			run(telemetry, reduceCfg)
		})
}

// BenchmarkQueryEngine measures subjective-query answering over a mined
// result.
func BenchmarkQueryEngine(b *testing.B) {
	w := world(b)
	eng := query.NewEngine(w.KB, w.Lex, w.Result)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run("dangerous animals"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Allocation budgets -------------------------------------------------------

// TestAllocBudgets holds the hot paths to the allocation discipline the
// scratch-reuse work bought: a creeping allocs/op is a regression even
// when wall time hides it, and the count — unlike ns/op — repeats from one
// machine to the next. Each budget is the benchmark's allocs/op when it
// was set (in the comment), exact where the count is, a few percent up
// where the worker count moves it.
func TestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six benchmarks for a second each")
	}
	for _, c := range []struct {
		name   string
		bench  func(*testing.B)
		budget int64
	}{
		{"PipelinePhases", BenchmarkPipelinePhases, 7_800},         // 7,436–7,521
		{"JSONLDecode", BenchmarkJSONLDecode, 4_200},               // 4,161
		{"Tokenize", BenchmarkTokenize, 3},                         // 3
		{"ExtractionThroughput", BenchmarkExtractionThroughput, 1}, // 1 (per sentence)
		{"WireCodec/encode", benchWireEncode, 30},                  // 29, and 30 under -race
		{"WireCodec/decode", benchWireDecode, 18_000},              // 17,726
	} {
		if got := testing.Benchmark(c.bench).AllocsPerOp(); got > c.budget {
			t.Errorf("%s: %d allocs/op, budget %d", c.name, got, c.budget)
		}
	}
}
