package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/evidence"
	"repro/internal/extract"
	"repro/internal/incremental"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/pipeline"
	"repro/internal/tagger"
	"repro/internal/wire"
)

// perLayer declares every metric of the traced run, in print order. A
// layer is a module of the repository; "_s" metrics are self times. Which
// end-to-end metric each should move, on which workload, is written down
// in bench/README.md. Every traced run measures every layer on its
// workload's world — also layers the workload's own path never enters
// (wire and dist outside web_dist2, incremental outside longtail_trickle)
// — so that each name always carries a measured value.
var perLayer = []struct{ name, unit string }{
	// The program's own phase timings of one mining run in the workload's
	// mode (the statistics line of cmd/surveyor on web_*, Result.Timings
	// of pipeline.Run on longtail_*; reduce = group + EM + index), what
	// they leave out of the rep's wall, and the start-up of cmd/surveyor
	// on an empty corpus.
	{"cli.mine_ms", "ms"}, {"cli.extract_ms", "ms"}, {"cli.reduce_ms", "ms"},
	{"cli.outside_mine_s", "s"}, {"cli.startup_s", "s"},
	// One goroutine over corpus.NewIterator / Next / Doc.
	{"corpus.decode_s", "s"}, {"corpus.decode_mb_s", "MB/s"},
	{"corpus.docs", "count"}, {"corpus.allocs_per_doc", "count"},
	// The extraction worker's per-sentence loop, re-created on one
	// goroutine from the layers' public *Into functions.
	{"token.split_s", "s"}, {"token.sentences", "count"}, {"token.tokens", "count"},
	{"pos.tag_s", "s"},
	{"tagger.new_s", "s"}, {"tagger.tag_s", "s"}, {"tagger.mentions", "count"}, {"tagger.pass_share", "%"},
	{"depparse.parse_s", "s"}, {"depparse.parses", "count"}, {"depparse.useful_share", "%"},
	{"extract.extract_s", "s"}, {"extract.statements", "count"},
	{"evidence.fold_s", "s"}, {"evidence.flush_s", "s"}, {"evidence.merge_s", "s"},
	{"evidence.group_s", "s"}, {"evidence.pairs", "count"}, {"evidence.kept_share", "%"},
	{"evidence.absorb_s", "s"},
	{"core.em_s", "s"}, {"core.em_iterations", "count"}, {"core.tuples", "count"},
	{"core.ns_per_tuple_iter", "ns"},
	{"pipeline.extract_w1_s", "s"}, {"pipeline.extract_wN_s", "s"},
	{"pipeline.parallel_efficiency", "%"},
	{"pipeline.fit_s", "s"}, {"pipeline.index_s", "s"}, {"pipeline.reduce_s", "s"},
	{"pipeline.allocs_per_doc", "count"}, {"pipeline.bytes_per_doc", "B"},
	{"wire.encode_s", "s"}, {"wire.decode_s", "s"}, {"wire.frame_bytes", "B"},
	{"wire.encode_mb_s", "MB/s"}, {"wire.decode_mb_s", "MB/s"},
	{"wire.decode_allocs_per_entry", "count"},
	{"dist.job_encode_s", "s"}, {"dist.job_decode_s", "s"}, {"dist.job_bytes", "B"},
	{"dist.result_encode_s", "s"}, {"dist.result_decode_s", "s"},
	{"dist.mine_local_s", "s"}, {"dist.overhead_share", "%"},
	{"incremental.ingest_ms_p50", "ms"}, {"incremental.ingest_ms_p80", "ms"},
	{"incremental.dirty_groups_per_epoch", "count"},
	{"incremental.refit_tuples_per_epoch", "count"}, {"incremental.refit_share", "%"},
	// The closure rows: wall of the ledger sequence, the sum of its
	// layers' self times, and what neither covers — a row of its own,
	// never folded into a layer.
	{"trace.wall_s", "s"}, {"trace.sum_layers_s", "s"}, {"trace.unaccounted_share", "%"},
	{"trace.overhead_ratio", "ratio"}, {"trace.clock_ns", "ns"},
}

// ledgerLayers are the spans of the ledger sequence: one goroutine doing
// what `surveyor -in` does, from JSONL bytes to the indexed result.
var ledgerLayers = []string{"corpus.decode", "tagger.new", "token.split", "pos.tag", "tagger.tag",
	"depparse.parse", "extract.extract", "evidence.fold", "evidence.flush",
	"evidence.merge", "evidence.group", "core.em", "pipeline.index"}

// maxUnaccounted is the closure assertion: the share of the ledger
// sequence's wall that no layer span covers. Not asserted at -quick size,
// where a pass is a few milliseconds and a ReadMemStats call shows.
const maxUnaccounted = 0.10

// span is one timed interval of the traced run: a call into a layer's
// public functions, or an interval that such calls divide among them.
type span struct {
	name   string
	start  time.Duration // since the trace began
	dur    time.Duration
	parent int // index of the span that caused this one; -1 for none
}

// tracer keeps the spans of one pass in memory.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.dur = time.Since(t.t0) - s.start
	return s.dur
}

// timed records fn as one span and returns its duration in seconds.
func (t *tracer) timed(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent)
	fn()
	return t.end(id).Seconds()
}

// selfSeconds sums, per span name, duration minus the part child spans
// cover.
func (t *tracer) selfSeconds() map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	byName := map[string]float64{}
	for i, s := range t.spans {
		byName[s.name] += self[i].Seconds()
	}
	return byName
}

// writeChrome writes the spans as Chrome trace events (chrome://tracing,
// Perfetto). Spans outside the ledger sequence go to a second track.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		root := i
		for t.spans[root].parent >= 0 {
			root = t.spans[root].parent
		}
		tid := 2
		if root == 0 {
			tid = 1
		}
		events[i] = event{s.name, "X", float64(s.start) / 1e3, float64(s.dur) / 1e3, 1, tid}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// docLoopChunks is how many spans the document loop is cut into. A span
// per sentence and stage would be millions of events; instead each chunk
// is one span whose children are the chunk's summed stage times.
const docLoopChunks = 64

// loopCounts is the work the document loop did.
type loopCounts struct {
	sentences, tokens, passed, mentions, parses, useful, statements int
}

// docLoop is pipeline's extraction worker loop, re-created on one
// goroutine with a clock reading at every layer boundary. Readings are
// chained — one reading ends a stage and starts the next — so the stages
// divide the loop's wall among them with nothing left over, and each
// stage's time includes about one clock reading per call. Documents below
// half fold into a, the rest into b: the two shard stores the merge, wire
// and dist layers are then measured on.
func docLoop(tr *tracer, parent int, w *world, docs []corpus.Document, half int, a, b *evidence.Local) loopCounts {
	// Every extraction phase builds these anew — every refresh epoch too —
	// and tagger.New walks the whole alias index, so it is a layer call of
	// its own.
	posTagger, parser, extractor := pos.New(w.lex), depparse.New(w.lex), extract.NewVersion(w.lex, extract.V4)
	var entTagger *tagger.Tagger
	tr.timed("tagger.new", parent, func() { entTagger = tagger.New(w.base, w.lex) })
	var (
		sents    []token.Sentence
		toks     []token.Token
		tagged   []pos.Tagged
		mentions []tagger.Mention
		stmts    []extract.Statement
		buf      []extract.Statement
		psc      depparse.Scratch
		tsc      tagger.Scratch
		n        loopCounts
	)
	stages := [...]string{"token.split", "pos.tag", "tagger.tag", "depparse.parse", "extract.extract", "evidence.fold"}
	chunks := min(docLoopChunks, len(docs))
	for c := 0; c < chunks; c++ {
		var took [len(stages)]time.Duration
		chunk := tr.begin("pipeline.docloop", parent)
		t := time.Now()
		stamp := func(stage int) {
			now := time.Now()
			took[stage] += now.Sub(t)
			t = now
		}
		for i := len(docs) * c / chunks; i < len(docs)*(c+1)/chunks; i++ {
			sents, toks = token.SplitSentencesInto(sents[:0], toks[:0], docs[i].Text)
			n.sentences += len(sents)
			n.tokens += len(toks)
			stamp(0)
			buf = buf[:0]
			for _, sent := range sents {
				tagged = posTagger.TagInto(tagged[:0], sent)
				stamp(1)
				mentions = entTagger.TagInto(mentions[:0], &tsc, tagged)
				stamp(2)
				if len(mentions) == 0 {
					continue
				}
				n.passed++
				n.mentions += len(mentions)
				tree := parser.ParseInto(&psc, tagged)
				stamp(3)
				stmts = extractor.ExtractInto(stmts[:0], tree, mentions)
				n.parses++
				if len(stmts) > 0 {
					n.useful++
				}
				buf = append(buf, stmts...)
				stamp(4)
			}
			acc := a
			if i >= half {
				acc = b
			}
			for _, st := range buf {
				acc.Add(st)
			}
			n.statements += len(buf)
			stamp(5)
		}
		// The chunk's stage totals become its child spans, laid end to end.
		at := tr.spans[chunk].start
		for s, name := range stages {
			tr.spans = append(tr.spans, span{name: name, parent: chunk, start: at, dur: took[s]})
			at += took[s]
		}
		tr.end(chunk)
	}
	return n
}

// clockCost measures one chained clock reading in nanoseconds: the cost
// docLoop adds to a stage per call.
func clockCost() float64 {
	const n = 1 << 20
	var took time.Duration
	start := time.Now()
	t := start
	for i := 0; i < n; i++ {
		now := time.Now()
		took += now.Sub(t)
		t = now
	}
	return float64(took.Nanoseconds()) / n
}

// ledger is the traced run: it sets the workload's world up, then measures
// every layer on it until -seconds have passed (at least once), reports
// each metric's median over the passes, and writes the last pass's spans
// to trace.json.
func (e *env) ledger(wl workload) (*outcome, []metric, error) {
	build := buildTail
	if wl.cli != nil {
		build = buildWeb
	}
	// One set-up: its time is an end-to-end metric, measured with tracing off.
	w, err := build(e.seed, e.sz, e.dir)
	if err != nil {
		return nil, nil, err
	}
	o := &outcome{corpusDocs: len(w.docs), corpusBytes: w.size}
	w.docs = nil // the ledger decodes its documents from the file, as the program does

	passes := map[string][]float64{}
	var tr *tracer
	timedLoop(e.seconds, 1, func() bool {
		tr = &tracer{t0: time.Now()}
		var values map[string]float64
		if values, err = e.ledgerPass(tr, w, wl, o); err != nil {
			return false
		}
		o.samples = append(o.samples, sample{wall: values["trace.wall_s"]})
		for name, v := range values {
			passes[name] = append(passes[name], v)
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	if err := tr.writeChrome(filepath.Join(e.dir, "trace.json")); err != nil {
		return nil, nil, err
	}
	var metrics []metric
	for _, d := range perLayer {
		xs, ok := passes[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("ledger measured no %s", d.name)
		}
		metrics = append(metrics, metric{d.name, d.unit, median(xs), fmt.Sprintf("n=%d", len(xs))})
	}
	return o, metrics, nil
}

// ledgerPass measures every layer once. The ledger sequence comes first,
// under one root span; the measurements after it re-enter single layers
// through other doors and are not part of the closure.
func (e *env) ledgerPass(tr *tracer, w *world, wl workload, o *outcome) (map[string]float64, error) {
	ctx := context.Background()
	v := map[string]float64{"trace.clock_ns": clockCost()}
	runtime.GC()

	// --- the ledger sequence ---
	root := tr.begin("ledger", -1)

	var docs []corpus.Document
	var readErr error
	allocs0, _ := mallocs()
	v["corpus.decode_s"] = tr.timed("corpus.decode", root, func() {
		f, err := os.Open(w.path)
		if err != nil {
			readErr = err
			return
		}
		defer f.Close()
		it := corpus.NewIterator(f, corpus.IteratorConfig{})
		for it.Next() {
			docs = append(docs, it.Doc())
		}
		readErr = it.Err()
	})
	allocs1, _ := mallocs()
	if readErr != nil {
		return nil, readErr
	}
	if len(docs) != o.corpusDocs {
		return nil, fmt.Errorf("decoded %d of %d documents", len(docs), o.corpusDocs)
	}
	v["corpus.docs"] = float64(len(docs))
	v["corpus.decode_mb_s"] = float64(w.size) / 1e6 / v["corpus.decode_s"]
	v["corpus.allocs_per_doc"] = float64(allocs1-allocs0) / float64(len(docs))

	half := len(docs) / 2
	localA, localB := evidence.NewLocal(), evidence.NewLocal()
	n := docLoop(tr, root, w, docs, half, localA, localB)

	storeA, storeB := evidence.NewStore(), evidence.NewStore()
	tr.timed("evidence.flush", root, func() {
		localA.FlushTo(storeA)
		localB.FlushTo(storeB)
	})
	merged := evidence.NewStore()
	tr.timed("evidence.merge", root, func() {
		merged.Merge(storeA)
		merged.Merge(storeB)
	})
	var groups []evidence.Group
	var pairs int
	tr.timed("evidence.group", root, func() {
		groups, pairs = evidence.ParallelGroup(merged, w.base, w.rho, e.workers)
	})
	// core.em covers what pipeline's EM worker does per group: fill the
	// tuples, FitAndClassifyInto, copy the classifications out.
	fitted := make([]pipeline.GroupResult, len(groups))
	var iterations, tuples, tupleIters int
	tr.timed("core.em", root, func() {
		var ts []core.Tuple
		var rs []core.Result
		em := core.DefaultEMConfig()
		for gi, g := range groups {
			ts = ts[:0]
			for _, ec := range g.Entities {
				ts = append(ts, core.Tuple{Pos: int(ec.Pos), Neg: int(ec.Neg)})
			}
			var gr pipeline.GroupResult
			gr.Key = g.Key
			gr.Model, rs, gr.Trace = core.FitAndClassifyInto(rs[:0], ts, em)
			gr.Entities = make([]pipeline.EntityOpinion, len(g.Entities))
			for i, ec := range g.Entities {
				gr.Entities[i] = pipeline.EntityOpinion{Entity: ec.Entity, Pos: ec.Pos, Neg: ec.Neg,
					Probability: rs[i].Probability, Opinion: rs[i].Opinion}
			}
			fitted[gi] = gr
			iterations += gr.Trace.Iterations
			tuples += len(ts)
			tupleIters += len(ts) * gr.Trace.Iterations
		}
	})
	var res *pipeline.Result
	tr.timed("pipeline.index", root, func() {
		res = pipeline.AssembleResult(merged, fitted, pipeline.ResultStats{
			TotalStatements: merged.TotalStatements(), DistinctPairs: merged.Len(),
			PairsBeforeFilter: pairs, Sentences: int64(n.sentences), Documents: len(docs)})
	})
	v["trace.wall_s"] = tr.end(root).Seconds()

	self := tr.selfSeconds()
	for _, name := range ledgerLayers {
		v["trace.sum_layers_s"] += self[name]
		v[name+"_s"] = self[name]
	}
	v["trace.unaccounted_share"] = 100 * (v["trace.wall_s"] - v["trace.sum_layers_s"]) / v["trace.wall_s"]
	v["token.sentences"], v["token.tokens"] = float64(n.sentences), float64(n.tokens)
	v["tagger.mentions"] = float64(n.mentions)
	v["tagger.pass_share"] = 100 * float64(n.passed) / float64(n.sentences)
	v["depparse.parses"] = float64(n.parses)
	v["depparse.useful_share"] = 100 * float64(n.useful) / float64(max(n.parses, 1))
	v["extract.statements"] = float64(n.statements)
	v["evidence.pairs"] = float64(pairs)
	v["evidence.kept_share"] = 100 * float64(len(groups)) / float64(max(pairs, 1))
	v["core.em_iterations"], v["core.tuples"] = float64(iterations), float64(tuples)
	v["core.ns_per_tuple_iter"] = v["core.em_s"] * 1e9 / float64(max(tupleIters, 1))

	// --- single layers, outside the closure ---
	aux := func(name string, fn func()) float64 { return tr.timed(name, -1, fn) }
	cfg := e.pipelineConfig(w)

	v["evidence.absorb_s"] = aux("evidence.absorb", func() {
		acc := evidence.NewGroupAccumulator(w.base)
		acc.AbsorbDelta(storeA)
		acc.AbsorbDelta(storeB)
	})
	v["pipeline.fit_s"] = aux("pipeline.fit", func() { pipeline.FitGroups(groups, cfg) })
	v["pipeline.reduce_s"] = aux("pipeline.reduce", func() {
		pipeline.ReduceStore(merged, w.base, cfg, pipeline.ReduceStats{Sentences: int64(n.sentences), Documents: len(docs)})
	})

	extractWith := func(name string, workers int) (float64, error) {
		var err error
		c := cfg
		c.Workers = workers
		took := aux(name, func() { _, err = pipeline.ExtractEvidence(ctx, docs, w.base, w.lex, c, 0) })
		return took, err
	}
	var err error
	if v["pipeline.extract_w1_s"], err = extractWith("pipeline.extract_w1", 1); err != nil {
		return nil, err
	}
	if v["pipeline.extract_wN_s"], err = extractWith("pipeline.extract_wN", e.workers); err != nil {
		return nil, err
	}
	v["pipeline.parallel_efficiency"] = 100 * v["pipeline.extract_w1_s"] / (float64(e.workers) * v["pipeline.extract_wN_s"])
	loop := self["token.split"] + self["pos.tag"] + self["tagger.tag"] + self["depparse.parse"] +
		self["extract.extract"] + self["evidence.fold"] + self["pipeline.docloop"]
	v["trace.overhead_ratio"] = loop / v["pipeline.extract_w1_s"]

	// A two-worker pipeline.Run: the allocation rates of a whole run, the
	// base dist.Mine's overhead is taken against, and the reference the
	// ledger's own result must equal.
	two := cfg
	two.Workers = 2
	var ref *pipeline.Result
	allocs0, bytes0 := mallocs()
	run2 := aux("pipeline.run_w2", func() { ref = pipeline.Run(docs, w.base, w.lex, two) })
	allocs1, bytes1 := mallocs()
	v["pipeline.allocs_per_doc"] = float64(allocs1-allocs0) / float64(len(docs))
	v["pipeline.bytes_per_doc"] = float64(bytes1-bytes0) / float64(len(docs))
	o.attempted++
	want, opinions := checksum(ref)
	if got, _ := checksum(res); opinions == 0 || got != want {
		o.fail("the ledger's result (checksum %x) differs from pipeline.Run's (%x, %d opinions)", got, want, opinions)
	}
	if share := v["trace.unaccounted_share"] / 100; share > maxUnaccounted && !e.quick {
		o.fail("the ledger does not close: %.1f%% of trace.wall_s is in no layer", 100*share)
	}

	// wire and dist, on the two shard stores and the two document halves.
	var frames [2]bytes.Buffer
	shards := [2]*evidence.Store{storeA, storeB}
	v["wire.encode_s"] = aux("wire.encode", func() {
		for i, s := range shards {
			if _, ferr := wire.EncodeStore(&frames[i], s); ferr != nil {
				err = ferr
			}
		}
	})
	frameBytes := float64(frames[0].Len() + frames[1].Len())
	allocs0, _ = mallocs()
	v["wire.decode_s"] = aux("wire.decode", func() {
		for i := range frames {
			if _, _, ferr := wire.DecodeStore(bytes.NewReader(frames[i].Bytes())); ferr != nil {
				err = ferr
			}
		}
	})
	allocs1, _ = mallocs()
	if err != nil {
		return nil, err
	}
	v["wire.frame_bytes"] = frameBytes
	v["wire.encode_mb_s"] = frameBytes / 1e6 / v["wire.encode_s"]
	v["wire.decode_mb_s"] = frameBytes / 1e6 / v["wire.decode_s"]
	v["wire.decode_allocs_per_entry"] = float64(allocs1-allocs0) / float64(max(storeA.Len()+storeB.Len(), 1))

	jobs := [2]*dist.Job{{Shard: 0, Docs: docs[:half]}, {Shard: 1, DocOffset: half, Docs: docs[half:]}}
	var jobFrames [2]bytes.Buffer
	v["dist.job_encode_s"] = aux("dist.job_encode", func() {
		for i, j := range jobs {
			if _, ferr := dist.WriteJob(&jobFrames[i], j); ferr != nil {
				err = ferr
			}
		}
	})
	v["dist.job_bytes"] = float64(jobFrames[0].Len() + jobFrames[1].Len())
	v["dist.job_decode_s"] = aux("dist.job_decode", func() {
		for i := range jobFrames {
			if _, _, ferr := dist.ReadJob(bytes.NewReader(jobFrames[i].Bytes())); ferr != nil {
				err = ferr
			}
		}
	})
	var resultFrames [2]bytes.Buffer
	v["dist.result_encode_s"] = aux("dist.result_encode", func() {
		for i, s := range shards {
			r := &dist.ShardResult{Shard: i, Consumed: len(jobs[i].Docs), Store: s}
			if _, ferr := dist.WriteShardResult(&resultFrames[i], r); ferr != nil {
				err = ferr
			}
		}
	})
	v["dist.result_decode_s"] = aux("dist.result_decode", func() {
		for i := range resultFrames {
			if _, _, ferr := dist.ReadShardResult(bytes.NewReader(resultFrames[i].Bytes())); ferr != nil {
				err = ferr
			}
		}
	})
	if err != nil {
		return nil, err
	}
	one := cfg
	one.Workers = 1
	var lost []dist.ShardError
	v["dist.mine_local_s"] = aux("dist.mine_local", func() {
		_, lost, err = dist.Mine(ctx, docs, w.base, dist.Config{Shards: 2, Pipeline: one,
			Transport: &dist.LocalTransport{Base: w.base, Lex: w.lex, Pipeline: one}})
	})
	if err != nil || len(lost) > 0 {
		return nil, fmt.Errorf("dist.Mine: %v, %d shards lost", err, len(lost))
	}
	v["dist.overhead_share"] = 100 * (v["dist.mine_local_s"] - run2) / v["dist.mine_local_s"]

	// incremental: bulk-ingest most of the corpus, then refresh epochs.
	m := incremental.New(w.base, w.lex, cfg)
	next := int(float64(len(docs)) * e.sz.bulkShare)
	if _, err := m.Ingest(ctx, docs[:next]); err != nil {
		return nil, err
	}
	var epochMS, dirty, refit, share []float64
	for k := 0; k < ledgerEpochs && next+e.sz.trickleDocs <= len(docs); k++ {
		var st incremental.EpochStats
		took := aux("incremental.ingest", func() { st, err = m.Ingest(ctx, docs[next:next+e.sz.trickleDocs]) })
		if err != nil {
			return nil, err
		}
		next += e.sz.trickleDocs
		epochMS = append(epochMS, took*1e3)
		dirty = append(dirty, float64(st.DirtyGroups))
		refit = append(refit, float64(st.RefitTuples))
		share = append(share, 100*float64(st.RefitGroups)/float64(max(st.ModelledGroups, 1)))
	}
	_, v["incremental.ingest_ms_p50"], _ = quartiles(epochMS)
	v["incremental.ingest_ms_p80"] = percentile(epochMS, 0.8)
	v["incremental.dirty_groups_per_epoch"] = mean(dirty)
	v["incremental.refit_tuples_per_epoch"] = mean(refit)
	v["incremental.refit_share"] = mean(share)

	return v, e.programTimings(tr, w, wl, docs, o, v)
}

// ledgerEpochs is the number of refresh epochs a pass times.
const ledgerEpochs = 60

// ledgerRuns is the number of whole mining runs a pass takes the
// program's own phase timings from.
const ledgerRuns = 3

// programTimings fills the cli.* metrics: what the program itself reports
// about one mining run in the workload's mode, with tracing off.
func (e *env) programTimings(tr *tracer, w *world, wl workload, docs []corpus.Document, o *outcome, v map[string]float64) error {
	var mine, ext, reduce, outside []float64
	record := func(wall float64, s cliStats) {
		mine, ext = append(mine, s.totalMS), append(ext, s.extract)
		reduce = append(reduce, s.group+s.em+s.index)
		outside = append(outside, wall-s.totalMS/1e3)
	}
	for i := 0; i < ledgerRuns; i++ {
		o.attempted++
		if wl.cli != nil {
			r := runCLI(e.surveyor, e.cliArgs(w, wl)...)
			if r.err != nil {
				o.fail("%v", r.err)
				continue
			}
			record(r.wall, r.stats)
			continue
		}
		var res *pipeline.Result
		wall := tr.timed("pipeline.run", -1, func() { res = pipeline.Run(docs, w.base, w.lex, e.pipelineConfig(w)) })
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		t := res.Timings
		record(wall, cliStats{extract: ms(t.Extraction), group: ms(t.Grouping), em: ms(t.EM), index: ms(t.Index), totalMS: ms(t.Total)})
	}
	// Means, not medians: the statistics line prints whole milliseconds,
	// and means keep outside_mine_s + mine_ms adding up to the mean wall.
	v["cli.mine_ms"], v["cli.extract_ms"] = mean(mine), mean(ext)
	v["cli.reduce_ms"], v["cli.outside_mine_s"] = mean(reduce), mean(outside)

	empty := filepath.Join(e.dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		return err
	}
	var startup []float64
	for i := 0; i < ledgerRuns; i++ {
		o.attempted++
		r := runCLI(e.surveyor, "-in", empty)
		if r.err != nil {
			o.fail("surveyor on an empty corpus: %v", r.err)
			continue
		}
		startup = append(startup, r.wall)
	}
	v["cli.startup_s"] = median(startup)
	return nil
}

// percentile returns the value at share p of the sorted samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1)+0.5)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
