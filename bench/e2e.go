package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/incremental"
	"repro/internal/pipeline"
)

// sample is one timed rep: one unit of work from input to complete result
// (a CLI run, a pipeline.Run, or a refresh epoch).
type sample struct {
	wall, cpu float64 // seconds
}

// outcome is what an untraced run measured.
type outcome struct {
	setup   []float64 // seconds per set-up
	samples []sample
	rssMB   float64
	// Work of one rep: input documents, their JSONL bytes, and the
	// entity-property opinions in the result it completes.
	docs, bytes, opinions float64
	// Every execution of the program under test counts as attempted; one
	// that exits non-zero, times out or fails an output check has failed.
	attempted, failed int
	problems          []string
	// corpusDocs and corpusBytes describe the whole generated input.
	corpusDocs  int
	corpusBytes int64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// timedLoop calls rep until seconds have passed and at least minReps reps
// are done, or rep reports that its input is used up.
func timedLoop(seconds float64, minReps int, rep func() bool) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		if !rep() {
			return
		}
	}
}

// --- web_*: the real cmd/surveyor binary -----------------------------------

// cliRun is one execution of cmd/surveyor.
type cliRun struct {
	sample
	rssMB  float64
	stdout [sha256.Size]byte
	stats  cliStats
	err    error
}

// cliStats is the statistics line cmd/surveyor prints on stderr.
type cliStats struct {
	documents, opinions                int
	extract, group, em, index, totalMS float64
}

var statsLine = regexp.MustCompile(`documents=(\d+) .* opinions=(\d+).* \(extract (\d+)ms, group (\d+)ms, em (\d+)ms, index (\d+)ms, total (\d+)ms\)`)

// cliTimeout bounds one execution; a full-size rep takes under 3 s.
const cliTimeout = 90 * time.Second

// runCLI executes the binary once, as the closed loop's single client:
// wall is process spawn to exit, cpu and rss come from the wait4 rusage of
// the process and the children it reaped (the -distribute workers).
func runCLI(bin string, args ...string) cliRun {
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	hash := sha256.New()
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = hash, &stderr
	var r cliRun
	start := time.Now()
	r.err = cmd.Run()
	r.wall = time.Since(start).Seconds()
	if r.err != nil {
		r.err = fmt.Errorf("%v: %w: %s", args, r.err, bytes.TrimSpace(stderr.Bytes()))
		return r
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	r.cpu = cmd.ProcessState.UserTime().Seconds() + cmd.ProcessState.SystemTime().Seconds()
	r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	hash.Sum(r.stdout[:0])
	m := statsLine.FindSubmatch(stderr.Bytes())
	if m == nil {
		r.err = fmt.Errorf("%v: no statistics line on stderr: %s", args, bytes.TrimSpace(stderr.Bytes()))
		return r
	}
	num := func(i int) float64 { v, _ := strconv.ParseFloat(string(m[i]), 64); return v }
	r.stats = cliStats{int(num(1)), int(num(2)), num(3), num(4), num(5), num(6), num(7)}
	return r
}

// cliArgs is the command line of one rep of a web workload.
func (e *env) cliArgs(w *world, wl workload) []string {
	workers := e.workers
	if wl.cliWorkers > 0 {
		workers = wl.cliWorkers
	}
	args := []string{"-in", w.path, "-seed", strconv.FormatUint(e.seed, 10),
		"-rho", strconv.FormatInt(w.rho, 10), "-workers", strconv.Itoa(workers)}
	return append(args, wl.cli...)
}

// generated is what a -generate child reports about the corpus it wrote.
type generated struct {
	Path  string `json:"path"`
	Docs  int    `json:"docs"`
	Bytes int64  `json:"bytes"`
}

// generate builds the web world and writes its corpus; it is the body of
// the hidden -generate mode.
func (e *env) generate(stdout io.Writer) error {
	w, err := buildWeb(e.seed, e.sz, e.dir)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(generated{w.path, len(w.docs), w.size})
}

// child runs this binary again with args, at the same sizing and in the
// same directory, and returns its standard output.
func (e *env) child(args ...string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args = append(args, "-seed", strconv.FormatUint(e.seed, 10), "-dir", e.dir)
	if e.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// generateInChild sets a web workload up in a child process of this binary.
// Linux books the peak RSS of the image that calls exec to the new
// program's ru_maxrss, so a parent that had held the generated corpus would
// report its own ≈250 MB for every CLI rep; this way the parent stays
// smaller than the smallest program run it measures.
func (e *env) generateInChild() (*generated, error) {
	out, err := e.child("-generate")
	if err != nil {
		return nil, fmt.Errorf("generate the web corpus: %w", err)
	}
	var g generated
	return &g, json.Unmarshal(out, &g)
}

// measureCLI runs a web workload: a batch reference run fixes the expected
// stdout, then one warm-up and the timed reps run in the workload's mode.
// Every run must print the reference bytes (the repo's bit-identity
// contract across execution modes) and count the generator's documents.
func (e *env) measureCLI(wl workload) (*outcome, error) {
	var g *generated
	var setup []float64
	for i := 0; i < e.sz.setups; i++ {
		start := time.Now()
		var err error
		if g, err = e.generateInChild(); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	o := &outcome{setup: setup, corpusDocs: g.Docs, corpusBytes: g.Bytes,
		docs: float64(g.Docs), bytes: float64(g.Bytes)}
	w := &world{path: g.Path, rho: e.sz.webRho}

	check := func(r cliRun, want *cliRun) bool {
		o.attempted++
		switch {
		case r.err != nil:
			o.fail("%v", r.err)
		case r.stats.documents != o.corpusDocs:
			o.fail("documents=%d, generator wrote %d", r.stats.documents, o.corpusDocs)
		case r.stats.opinions == 0:
			o.fail("no opinions produced")
		case want != nil && r.stdout != want.stdout:
			o.fail("stdout differs from the batch run over the same corpus")
		default:
			return true
		}
		return false
	}
	ref := runCLI(e.surveyor, e.cliArgs(w, workloads[0])...)
	if !check(ref, nil) {
		return o, nil
	}
	o.opinions = float64(ref.stats.opinions)
	args := e.cliArgs(w, wl)
	check(runCLI(e.surveyor, args...), &ref) // warm-up
	timedLoop(e.seconds, e.sz.minReps, func() bool {
		r := runCLI(e.surveyor, args...)
		if check(r, &ref) {
			o.samples = append(o.samples, r.sample)
			o.rssMB = math.Max(o.rssMB, r.rssMB)
		}
		return true
	})
	return o, nil
}

// --- longtail_*: the library, in this process -------------------------------

// selfUsage returns the user+system CPU seconds and peak RSS of this
// process. The long-tail worlds cannot be expressed on cmd/surveyor's
// command line (its knowledge base is built in), so the library runs here
// and the process measures itself; one invocation runs one workload, so
// nothing else shares the counters.
func selfUsage() (cpu, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

func (e *env) pipelineConfig(w *world) pipeline.Config {
	return pipeline.Config{Workers: e.workers, Rho: w.rho}
}

// checksum folds every opinion of a result into an order-independent sum
// and counts them.
func checksum(res *pipeline.Result) (sum uint64, opinions int) {
	mix := func(x uint64) uint64 { // splitmix64 finaliser
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		return x ^ x>>31
	}
	for gi := range res.Groups {
		g := &res.Groups[gi]
		kh := fnv.New64a()
		kh.Write([]byte(g.Key.Type + "\x00" + g.Key.Property))
		key := kh.Sum64()
		for _, eo := range g.Entities {
			h := mix(key ^ uint64(eo.Entity))
			h = mix(h ^ math.Float64bits(eo.Probability))
			h = mix(h ^ uint64(eo.Pos)<<32 ^ uint64(eo.Neg)<<2 ^ uint64(eo.Opinion+1))
			sum += h
		}
		opinions += len(g.Entities)
	}
	return sum, opinions
}

// measureBatch runs longtail_batch: pipeline.Run over the whole long-tail
// corpus per rep. Every modelled group must classify every entity of its
// type, and every rep must produce the same opinions.
func (e *env) measureBatch() (*outcome, error) {
	w, setup, err := setUp(e.sz, func() (*world, error) { return buildTail(e.seed, e.sz, e.dir) })
	if err != nil {
		return nil, err
	}
	o := &outcome{setup: setup, corpusDocs: len(w.docs), corpusBytes: w.size,
		docs: float64(len(w.docs)), bytes: float64(w.size)}
	cfg := e.pipelineConfig(w)
	var want uint64
	rep := func(timed bool) bool {
		runtime.GC() // the previous rep's result, outside the timed region
		cpu0, _ := selfUsage()
		start := time.Now()
		res := pipeline.Run(w.docs, w.base, w.lex, cfg)
		wall := time.Since(start).Seconds()
		cpu1, _ := selfUsage()
		o.attempted++
		sum, opinions := checksum(res)
		switch {
		case opinions == 0 || opinions != len(res.Groups)*w.perType:
			o.fail("%d opinions from %d groups of %d entities", opinions, len(res.Groups), w.perType)
		case res.Documents != len(w.docs):
			o.fail("mined %d of %d documents", res.Documents, len(w.docs))
		case !timed:
			want, o.opinions = sum, float64(opinions)
		case sum != want:
			o.fail("opinion checksum %x differs from the first rep's %x", sum, want)
		default:
			o.samples = append(o.samples, sample{wall, cpu1 - cpu0})
		}
		return true
	}
	rep(false) // warm-up
	timedLoop(e.seconds, e.sz.minReps, func() bool { return rep(true) })
	_, o.rssMB = selfUsage()
	return o, nil
}

// measureTrickle runs longtail_trickle: the incremental miner has ingested
// most of the corpus (part of set-up); each timed rep ingests the next few
// documents and republishes the complete opinion table. The final table
// must equal a batch run over the same documents.
func (e *env) measureTrickle() (*outcome, error) {
	ctx := context.Background()
	w, setup, err := setUp(e.sz, func() (*world, error) {
		w, err := buildTail(e.seed, e.sz, e.dir)
		if err != nil {
			return nil, err
		}
		w.miner = incremental.New(w.base, w.lex, e.pipelineConfig(w))
		w.next = int(float64(len(w.docs)) * e.sz.bulkShare)
		_, err = w.miner.Ingest(ctx, w.docs[:w.next])
		return w, err
	})
	if err != nil {
		return nil, err
	}
	m, next := w.miner, w.next
	o := &outcome{setup: setup, corpusDocs: len(w.docs), corpusBytes: w.size,
		docs: float64(e.sz.trickleDocs), bytes: float64(w.size) / float64(len(w.docs)) * float64(e.sz.trickleDocs)}
	timedLoop(e.seconds, e.sz.minEpochs, func() bool {
		end := next + e.sz.trickleDocs
		if end > len(w.docs) {
			return false
		}
		cpu0, _ := selfUsage()
		start := time.Now()
		_, err := m.Ingest(ctx, w.docs[next:end])
		wall := time.Since(start).Seconds()
		cpu1, _ := selfUsage()
		next = end
		o.attempted++
		if err != nil {
			o.fail("ingest: %v", err)
		} else {
			o.samples = append(o.samples, sample{wall, cpu1 - cpu0})
		}
		return true
	})
	_, o.rssMB = selfUsage()

	o.attempted++
	got, opinions := checksum(m.Snapshot())
	want, _ := checksum(pipeline.Run(w.docs[:next], w.base, w.lex, e.pipelineConfig(w)))
	o.opinions = float64(opinions)
	if opinions == 0 || got != want {
		o.fail("final snapshot (%d opinions, checksum %x) differs from a batch run over the same %d documents (%x)",
			opinions, got, next, want)
	}
	return o, nil
}
