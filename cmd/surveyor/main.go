// Command surveyor runs the full Surveyor pipeline over a document corpus
// (JSON lines, as produced by corpusgen or any compatible source) against
// the built-in knowledge base and prints the mined opinions.
//
// Usage:
//
//	surveyor [-rho N] [-version 1..4] [-workers N] [-top K] [-in FILE]
//	         [-lenient] [-epochs N] [-distribute N]
//	         [-dist-retries N] [-dist-backoff DUR] [-dist-deadline DUR]
//	         [-dist-heartbeat DUR] [-dist-connect ADDRS | -dist-listen ADDR]
//	         [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//	         [-debug-addr ADDR] [-linger DUR] [-report FILE]
//
// With no -in, a demonstration corpus is generated on the fly. An -in
// file is streamed through the pipeline in bounded memory, never loaded
// whole; -lenient skips and counts malformed or oversized corpus lines
// instead of aborting. Without it a malformed line stops the run: the
// documents before it are still mined and reported, and the exit status
// is 1. -stream is accepted and ignored.
//
// -epochs N replays the corpus through the incremental miner in N
// contiguous epochs, printing per-epoch dirty-group and re-fit stats to
// stderr. The final output is bit-identical to the default batch run —
// the whole point of the incremental engine. -epochs and -distribute load
// an -in file whole before they cut it.
//
// -distribute N mines the corpus with N worker processes, each re-executing
// this binary in a hidden worker mode and extracting evidence from one
// contiguous corpus shard; the coordinator merges the shipped evidence
// deltas and models the union once. Output is bit-identical to the
// single-process run. The scheduler self-heals: a crashed or hung worker's
// shard is retried on a fresh worker up to -dist-retries times, backing
// off with seeded jitter between attempts (-dist-backoff) and reclaiming
// attempts that outlive -dist-deadline. Only a shard whose whole budget
// is exhausted is lost (reported on stderr); the run continues.
// Incompatible with -epochs.
//
// -dist-connect ADDR[,ADDR...] makes -distribute dial standalone socket
// workers instead of forking children: each shard attempt is one TCP
// connection to a worker server started elsewhere with -dist-listen ADDR,
// and dial failures reconnect with backoff across the listed endpoints.
// Forked or dialled, a worker sends heartbeat frames while mining
// (-dist-heartbeat sets the cadence) so the coordinator can tell a slow
// shard from a dead link. A worker's own flags (-seed, -workers) only
// rebuild the knowledge base and size its threads: the pattern version
// and whether to record telemetry come with each shard's job. Output
// remains bit-identical to the single-process run.
//
// SIGINT/SIGTERM cancel the run at document granularity: the documents
// processed so far are still grouped and modelled, worker children are
// killed and reaped, the partial statistics and -report are flushed on
// the way down, and the process exits 130. A second signal kills the
// process immediately; orphaned workers, forked or dialled, notice the
// dead coordinator when their input stream ends and exit on their own.
//
// Observability: -debug-addr starts a live debug server (Prometheus
// /metrics, /trace for Perfetto, /em, /cluster, /healthz, pprof); -linger
// keeps it serving after the run finishes so the final state can be
// scraped. /metrics is the live view: surveyor_doc_sentences_count and
// _sum count documents and sentences as they finish. -report writes a
// machine-readable JSON run report. EM telemetry is re-derived from the
// run's result, for every group, with no caps and no sampling: /em and the
// report's "em" section are the convergence summary, and
// /em?type=T&property=P replays that group's per-iteration trajectory (404
// for a group that was not modelled). Before the result exists /em serves
// the zero summary. Combined with -distribute, forked and socket workers alike record each shard
// attempt's observability and ship it back as a telemetry frame:
// /metrics grows federated surveyor_fleet_* series, /trace stitches every
// worker's spans onto its own pid track with skew-corrected timestamps,
// and /cluster shows the per-shard fleet view. Telemetry is write-only —
// mined results are bit-identical with or without it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/surveyor"
)

func main() {
	// run holds the real logic so profile writes (deferred there) happen
	// before the process exits; os.Exit here would skip defers.
	os.Exit(run())
}

func run() int {
	rho := flag.Int64("rho", 100, "minimum statements per (type, property) pair")
	queryStr := flag.String("query", "", "answer a subjective query (e.g. 'big cities') instead of dumping groups")
	version := flag.Int("version", 4, "extraction pattern version 1-4")
	workers := flag.Int("workers", 0, "extraction parallelism (0 = all cores)")
	top := flag.Int("top", 10, "entities to print per modelled group")
	in := flag.String("in", "", "input corpus (JSON lines); empty generates a demo snapshot")
	flag.Bool("stream", false, "accepted and ignored: -in always streams the corpus in bounded memory")
	lenient := flag.Bool("lenient", false, "skip and count malformed or oversized corpus lines instead of aborting")
	epochs := flag.Int("epochs", 0, "replay the corpus through the incremental miner in N contiguous epochs (0 = one batch run)")
	distribute := flag.Int("distribute", 0, "mine with N worker processes, one corpus shard each (0 = single process)")
	distWorker := flag.Bool("dist-worker", false, "serve one distributed-mining shard on stdin/stdout (internal; launched by -distribute)")
	distRetries := flag.Int("dist-retries", 3, "total worker attempts per shard before the shard is lost (with -distribute; 1 disables retry)")
	distBackoff := flag.Duration("dist-backoff", 100*time.Millisecond, "base backoff before a shard retry, doubled per attempt with seeded jitter (with -distribute)")
	distDeadline := flag.Duration("dist-deadline", 0, "per-shard attempt deadline; a worker past it is presumed hung and the shard reassigned (with -distribute; 0 = none)")
	distListen := flag.String("dist-listen", "", "serve as a standalone socket worker on this address (e.g. :7070) until interrupted")
	distConnect := flag.String("dist-connect", "", "comma-separated socket worker addresses; -distribute dials these instead of forking children")
	distHeartbeat := flag.Duration("dist-heartbeat", time.Second, "liveness heartbeat interval of a worker while mining (with -distribute or -dist-listen)")
	seed := flag.Uint64("seed", 1, "seed for the demo snapshot")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file (go tool trace)")
	debugAddr := flag.String("debug-addr", "", "serve the live debug endpoints on this address (e.g. localhost:6060)")
	linger := flag.Duration("linger", 0, "keep the debug server up this long after the run (with -debug-addr)")
	reportPath := flag.String("report", "", "write a JSON run report to this file")
	flag.Parse()

	// Checked before any mode runs, so a worker started with a bad
	// -version fails fast although it mines with each job's version.
	if *version < 1 || *version > 4 {
		fmt.Fprintf(os.Stderr, "-version must be 1, 2, 3 or 4 (got %d)\n", *version)
		return 1
	}
	for _, f := range []struct {
		name  string
		value int64
	}{
		{"-top", int64(*top)}, {"-rho", *rho}, {"-workers", int64(*workers)},
		{"-epochs", int64(*epochs)}, {"-distribute", int64(*distribute)},
	} {
		if f.value < 0 {
			fmt.Fprintf(os.Stderr, "%s must not be negative (got %d)\n", f.name, f.value)
			return 1
		}
	}
	if *distConnect != "" && slices.Contains(strings.Split(*distConnect, ","), "") {
		fmt.Fprintf(os.Stderr, "-dist-connect must list non-empty addresses (got %q)\n", *distConnect)
		return 1
	}

	prof := obs.Profiling{CPUProfile: *cpuProfile, MemProfile: *memProfile, Trace: *tracePath}
	if prof.Enabled() {
		stop, err := prof.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	// Telemetry sinks cost nothing when no obs flag asks for them.
	var o *obs.RunObs
	if *debugAddr != "" || *reportPath != "" {
		o = obs.New()
		o.RegisterBuildInfo()
	}
	// /em reads the run's result once it exists.
	var final atomic.Pointer[surveyor.Result]
	if *debugAddr != "" {
		mux := obs.Handler(o)
		mux.HandleFunc("/em", serveEM(&final))
		ds, err := obs.StartDebugServer(*debugAddr, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/ (metrics, trace, cluster, healthz, em, em?type=&property=, pprof)\n", ds.Addr)
	}

	// SIGINT/SIGTERM cancel the mining run. The first signal cancels the
	// context — worker children are killed through it, socket connections
	// close, and the partial result is still reported on the way down. A
	// second signal kills the process immediately: children notice the
	// dead coordinator on their own (their input ends) instead of
	// surviving as orphans. stopSignals
	// restores default signal handling after mining, so a signal during
	// -linger also kills the process outright.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cancel()
		<-sigc
		os.Exit(130)
	}()
	stopSignals := func() { signal.Stop(sigc) }
	defer stopSignals()

	// Both worker modes below mine with workerCfg: each job brings its
	// pattern version and says whether to record telemetry.
	workerCfg := surveyor.Config{Workers: *workers}

	// Hidden worker mode: serve one distributed-mining shard on
	// stdin/stdout and exit. A terminal SIGINT reaches the whole process
	// group, so the worker's context cancels alongside the coordinator's;
	// the all-or-nothing shard commit turns that into a cleanly lost shard.
	if *distWorker {
		err := surveyor.NewSystemWithBuiltinKB(*seed).ServeWorker(ctx, os.Stdin, os.Stdout, workerCfg, *distHeartbeat)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	// Standalone socket worker: serve shard attempts over TCP until
	// interrupted. Coordinators reach it with -distribute N -dist-connect.
	if *distListen != "" {
		ln, err := net.Listen("tcp", *distListen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "socket worker listening on %s\n", ln.Addr())
		err = surveyor.NewSystemWithBuiltinKB(*seed).ServeSocketWorker(ctx, ln, workerCfg,
			surveyor.SocketWorkerOptions{Heartbeat: *distHeartbeat, ErrLog: os.Stderr})
		if err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *distribute > 0 && *epochs > 0 {
		fmt.Fprintln(os.Stderr, "-distribute shards the corpus across workers; it cannot be combined with -epochs")
		return 1
	}
	if *distConnect != "" && *distribute <= 0 {
		fmt.Fprintln(os.Stderr, "-dist-connect needs -distribute N to say how many shards to dial out")
		return 1
	}

	sys := surveyor.NewSystemWithBuiltinKB(*seed)
	cfg := surveyor.Config{
		Rho:            *rho,
		PatternVersion: *version,
		Workers:        *workers,
		Obs:            o,
	}

	// The distributed coordinator re-executes this binary in worker mode
	// (or dials out to -dist-connect socket workers); the worker flags
	// rebuild the same knowledge base, and each job frame carries the rest.
	distOpts := surveyor.DistributedOptions{
		Workers:       *distribute,
		Retries:       *distRetries,
		RetryBackoff:  *distBackoff,
		ShardDeadline: *distDeadline,
		Seed:          *seed,
		Stderr:        os.Stderr,
	}
	if *distConnect != "" {
		distOpts.Connect = strings.Split(*distConnect, ",")
	} else if *distribute > 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		distOpts.Command = []string{exe, "-dist-worker",
			"-seed", strconv.FormatUint(*seed, 10),
			"-workers", strconv.Itoa(*workers),
			"-dist-heartbeat", distHeartbeat.String()}
	}

	var res *surveyor.Result
	var mineErr error
	var loadSkipped int64
	if *in == "" {
		docs := corpus.NewGenerator(kb.Default(*seed), corpus.Table2Specs(),
			corpus.Config{Seed: *seed, Scale: 1}).Generate().Documents
		fmt.Fprintf(os.Stderr, "generated demo snapshot: %d documents\n", len(docs))
		res, mineErr = mine(ctx, sys, docs, cfg, *epochs, distOpts)
	} else if f, err := os.Open(*in); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	} else if *epochs == 0 && *distribute == 0 {
		// The file is the corpus: the pipeline reads it as it mines, so a
		// malformed line ends the run with the prefix before it mined.
		res, mineErr = sys.MineJSONL(ctx, f, surveyor.StreamOptions{Lenient: *lenient}, cfg)
		f.Close()
	} else {
		// -epochs and -distribute cut a []Document, so they load it whole.
		var docs []surveyor.Document
		it := corpus.NewIterator(f, corpus.IteratorConfig{Lenient: *lenient})
		for it.Next() {
			if len(docs) == sizingSample {
				docs = slices.Grow(docs, remainingDocs(f, len(docs)))
			}
			docs = append(docs, it.Doc())
		}
		f.Close()
		if err := it.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if loadSkipped = it.Stats().Skipped(); loadSkipped > 0 {
			fmt.Fprintf(os.Stderr, "skipped %d malformed or oversized corpus lines\n", loadSkipped)
			// The lines were dropped here, ahead of the pipeline: count them
			// where the pipeline counts its own, so /metrics and /healthz agree.
			o.PipelineMetrics().SkippedLines.Add(loadSkipped)
		}
		res, mineErr = mine(ctx, sys, docs, cfg, *epochs, distOpts)
	}
	stopSignals()
	final.Store(res)

	// A partial run (signal, corpus read failure) still carries a
	// consistent result: report it, flush everything, exit non-zero.
	exit := 0
	partialCause := ""
	if mineErr != nil {
		var pe *surveyor.PartialError
		if !errors.As(mineErr, &pe) {
			fmt.Fprintln(os.Stderr, mineErr)
			return 1
		}
		partialCause = pe.Err.Error()
		if errors.Is(mineErr, context.Canceled) {
			exit = 130
		} else {
			exit = 1
		}
		fmt.Fprintf(os.Stderr, "run stopped early (%s) — reporting the partial result\n", partialCause)
	}

	stats := res.Stats()
	fmt.Fprintln(os.Stderr, stats.String())
	if q := res.Quarantined(); len(q) > 0 {
		fmt.Fprintf(os.Stderr, "quarantined %d documents (first: doc %d: %s)\n", len(q), q[0].Doc, q[0].Reason)
	}

	if *reportPath != "" {
		if err := writeReport(*reportPath, res, o, *workers, *rho, *version, loadSkipped, partialCause); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "run report written to %s\n", *reportPath)
	}
	if *queryStr != "" {
		answers, err := res.Query(*queryStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, a := range answers {
			fmt.Printf("%s %-24s p=%.3f (+%d/-%d)\n", "+", a.Entity, a.Probability, a.Pos, a.Neg)
		}
	} else {
		printGroups(res, *top)
	}

	// Last, so the answer is on stdout while the final state is scraped.
	if *debugAddr != "" && *linger > 0 {
		fmt.Fprintf(os.Stderr, "lingering %s for scrapes of the final state\n", *linger)
		time.Sleep(*linger)
	}
	return exit
}

// printGroups dumps every modelled group with its top entities by
// probability.
func printGroups(res *surveyor.Result, top int) {
	for _, g := range res.Groups() {
		fmt.Printf("\n%s %s  (pA=%.2f np+S=%.1f np-S=%.1f)\n",
			g.Property, g.Type, g.PA, g.NpPlus, g.NpMinus)
		ents := append([]surveyor.EntityOpinion(nil), g.Entities...)
		sort.Slice(ents, func(a, b int) bool {
			return ents[a].Probability > ents[b].Probability
		})
		for _, eo := range ents[:min(top, len(ents))] {
			fmt.Printf("  %s %-24s p=%.3f  (+%d/-%d)\n",
				eo.Opinion, eo.Entity, eo.Probability, eo.Pos, eo.Neg)
		}
	}
}

// sizingSample is how many documents the whole-file loader reads before it
// sizes its slice for the rest of the file: enough for a fair mean length
// and to make the reader's read-ahead small against the bytes they took.
const sizingSample = 16384

// remainingDocs estimates how many documents follow the n that brought f's
// offset to where it is: the bytes left over the mean bytes per document so
// far, plus an eighth for that read-ahead and for shorter documents to
// come. 0 when f has no size or offset (a pipe); append covers any shortfall.
func remainingDocs(f *os.File, n int) int {
	st, serr := f.Stat()
	off, err := f.Seek(0, io.SeekCurrent)
	if serr != nil || err != nil || off <= 0 || st.Size() <= off {
		return 0
	}
	return int(float64(st.Size()-off) / float64(off) * float64(n) * 1.125)
}

// mine runs a loaded corpus as one batch (the default), across
// distributed workers (child processes or socket workers, with the
// self-healing retry scheduler), or through the incremental miner in
// epochs contiguous epochs (printing per-epoch stats). All paths produce
// bit-identical results.
func mine(ctx context.Context, sys *surveyor.System, docs []surveyor.Document, cfg surveyor.Config, epochs int, distOpts surveyor.DistributedOptions) (*surveyor.Result, error) {
	if distOpts.Workers > 0 {
		res, failures, err := sys.MineDistributed(ctx, docs, distOpts, cfg)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "shard %d lost (%d docs, %d attempts): %v\n", f.Shard, f.Docs, f.Attempts, f.Err)
		}
		return res, err
	}
	if epochs <= 0 {
		return sys.MineContext(ctx, docs, cfg)
	}
	m := sys.MineIncremental(cfg)
	for e := 0; e < epochs; e++ {
		lo, hi := len(docs)*e/epochs, len(docs)*(e+1)/epochs
		st, err := m.Epoch(ctx, docs[lo:hi])
		if err != nil {
			// An interrupted epoch was discarded whole; the snapshot is the
			// consistent result over the epochs that committed.
			snap := m.Snapshot()
			return snap, &surveyor.PartialError{
				Result:    snap,
				Documents: snap.Stats().Documents,
				Err:       err,
			}
		}
		fmt.Fprintf(os.Stderr,
			"epoch %d/%d: docs=%d statements=%d dirty=%d refit=%d/%d tuples=%d (%dms)\n",
			st.Epoch+1, epochs, st.Documents, st.Statements, st.DirtyGroups,
			st.RefitGroups, st.ModelledGroups, st.RefitTuples,
			st.Duration.Milliseconds())
	}
	return m.Snapshot(), nil
}

// serveEM answers /em from the run's result: the EM summary, or with
// ?type=&property= that group's row and its replayed trajectory (404 when
// the group was not modelled). Before the result exists it serves the zero
// summary, and every group is unknown.
func serveEM(final *atomic.Pointer[surveyor.Result]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		res, q := final.Load(), r.URL.Query()
		var body any = obs.EMSnapshot{}
		if q.Has("type") || q.Has("property") {
			var ok bool
			if res != nil {
				body, ok = res.EMTrajectory(q.Get("type"), q.Get("property"))
			}
			if !ok {
				http.NotFound(w, r)
				return
			}
		} else if res != nil {
			body = res.EMSummary()
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	}
}

// writeReport fills an obs.Report from the run's result and telemetry and
// writes it as indented JSON.
func writeReport(path string, res *surveyor.Result, o *obs.RunObs, workers int, rho int64, version int, loadSkipped int64, partialCause string) error {
	stats := res.Stats()
	rep := obs.NewReport()
	rep.Workers = workers
	rep.Rho = rho
	rep.Version = version
	rep.Documents = stats.Documents
	rep.Sentences = stats.Sentences
	rep.Statements = stats.Statements
	rep.DistinctPairs = stats.DistinctPairs
	rep.PairsBeforeFilter = stats.PairsBeforeFilter
	rep.Groups = stats.ModelledGroups
	rep.Opinions = stats.OpinionsProduced
	rep.QuarantinedDocs = int64(stats.QuarantinedDocs)
	rep.SkippedLines = stats.SkippedLines + loadSkipped
	rep.Partial = partialCause != ""
	rep.PartialCause = partialCause
	rep.TimingsMillis["extract"] = stats.ExtractionMillis
	rep.TimingsMillis["group"] = stats.GroupingMillis
	rep.TimingsMillis["em"] = stats.EMMillis
	rep.TimingsMillis["index"] = stats.IndexMillis
	rep.TimingsMillis["total"] = stats.TotalMillis
	rep.EM = res.EMSummary()
	rep.Attach(o)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
