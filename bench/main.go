// Command bench is the repository's benchmark. One invocation runs one
// workload: it generates the workload's input from -seed, drives the real
// cmd/surveyor binary (web_*) or the library (longtail_*) as a closed loop
// with one client for -seconds, checks the outputs, and prints every
// metric by name with its unit — the end-to-end metrics with -trace 0, the
// per-layer ledger with -trace 1 — followed by one JSON object on the last
// line. BENCHMARK.json at the root of the repository declares the names;
// bench/README.md explains them. Run it through bench/run.sh, which builds
// both binaries:
//
//	bash bench/run.sh -workload web_batch -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workload names one set of inputs and how the program is run on it.
type workload struct {
	name string
	// cli is the execution-mode arguments of cmd/surveyor for a web
	// workload; nil means the workload runs the library on the long-tail
	// world. cliWorkers overrides -workers (0 means W).
	cli        []string
	cliWorkers int
	// trickle selects the incremental miner over pipeline.Run.
	trickle bool
}

// workloads is the closed list BENCHMARK.json declares; bench/README.md
// records why each was chosen. web_batch comes first: it is the reference
// the other web workloads' output is compared with.
var workloads = []workload{
	{name: "web_batch", cli: []string{}},
	{name: "web_stream", cli: []string{"-stream"}},
	{name: "web_dist2", cli: []string{"-distribute", "2"}, cliWorkers: 1},
	{name: "longtail_batch"},
	{name: "longtail_trickle", trickle: true},
}

// env is one invocation's configuration.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	dir      string // scratch directory for generated corpora and trace.json
	surveyor string // path of the cmd/surveyor binary
	buildMS  int

	sz      sizing
	workers int // W = min(nproc, 4): the parallelism every workload asks for
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string // sample count and quartiles, for the reader
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var e env
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&e.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&e.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&e.seconds, "seconds", 10, "how long the timed reps of a run last")
	fs.IntVar(&e.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the per-layer ledger")
	fs.BoolVar(&e.quick, "quick", false, "smoke-test sizing: every code path, no timing value")
	generate := fs.Bool("generate", false, "write the web corpus and report it (internal; the web workloads set up in a child)")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and compare the two sets within the bounds of BENCHMARK.json")
	fs.StringVar(&e.dir, "dir", ".bench_build", "directory for generated corpora and trace.json")
	fs.StringVar(&e.surveyor, "surveyor", "", "cmd/surveyor binary (default <dir>/bin/surveyor)")
	fs.IntVar(&e.buildMS, "build-ms", 0, "time run.sh spent building, reported as build_s")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if e.surveyor == "" {
		e.surveyor = filepath.Join(e.dir, "bin", "surveyor")
	}
	e.sz = fullSizing
	if e.quick {
		e.sz = quickSizing
	}
	e.workers = min(runtime.NumCPU(), 4)

	var err error
	switch {
	case *generate:
		err = e.generate(stdout)
	case *selfcheck:
		err = e.selfcheck(stdout)
	default:
		err = e.runWorkload(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return strings.Join(names, ", ")
}

// errIncorrect reports a run whose result line says "correct": false.
var errIncorrect = errors.New("an output check failed")

// runWorkload runs one workload, prints the report, and ends standard
// output with the result object.
func (e *env) runWorkload(stdout io.Writer) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == e.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q (have %s)", e.workload, workloadNames())
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}

	var o *outcome
	var metrics []metric
	var err error
	switch {
	case e.trace != 0:
		o, metrics, err = e.ledger(*wl)
	case wl.cli != nil:
		o, err = e.measureCLI(*wl)
	case wl.trickle:
		o, err = e.measureTrickle()
	default:
		o, err = e.measureBatch()
	}
	if err != nil {
		return err
	}
	if e.trace == 0 {
		metrics = o.metrics()
	}

	fmt.Fprintf(stdout, "# workload=%s trace=%d seed=%d seconds=%g quick=%t\n", wl.name, e.trace, e.seed, e.seconds, e.quick)
	fmt.Fprintf(stdout, "# nproc=%d GOMAXPROCS=%d W=%d go=%s commit=%s build_s=%.3f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), e.workers, runtime.Version(), gitCommit(), float64(e.buildMS)/1000)
	fmt.Fprintf(stdout, "# corpus_docs=%d corpus_bytes=%d samples=%d attempted=%d failed=%d\n",
		o.corpusDocs, o.corpusBytes, len(o.samples), o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintf(stdout, "# FAILED: %s\n", p)
	}
	values := map[string]any{}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-34s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
		values[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	correct := o.failed == 0 && len(o.samples) > 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(o.attempted, 1), "failed": o.failed, "metrics": values})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return errIncorrect
	}
	return nil
}

// gitCommit names the commit under test. The driver's checkout is not a
// git repository; there the header says so.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// metrics turns the timed reps into the end-to-end metrics. Timings are
// medians over the reps; with at most a few dozen samples no percentile
// above the quartiles is supportable, so the note carries n, q1 and q3.
func (o *outcome) metrics() []metric {
	per := func(f func(sample) float64) []float64 {
		xs := make([]float64, len(o.samples))
		for i, s := range o.samples {
			xs[i] = f(s)
		}
		return xs
	}
	timing := func(name, unit string, xs []float64) metric {
		q1, med, q3 := quartiles(xs)
		return metric{name, unit, med, fmt.Sprintf("n=%d q1=%.6g q3=%.6g", len(xs), q1, q3)}
	}
	return []metric{
		timing("setup_s", "s", o.setup),
		timing("wall_s", "s", per(func(s sample) float64 { return s.wall })),
		timing("docs_per_s", "1/s", per(func(s sample) float64 { return o.docs / s.wall })),
		timing("mb_per_s", "MB/s", per(func(s sample) float64 { return o.bytes / 1e6 / s.wall })),
		timing("opinions_per_s", "1/s", per(func(s sample) float64 { return o.opinions / s.wall })),
		timing("cpu_s", "s", per(func(s sample) float64 { return s.cpu })),
		{"peak_rss_mb", "MB", o.rssMB, "max over the reps"},
	}
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them, so the
// spreads printed here are the ones the driver derives.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}
