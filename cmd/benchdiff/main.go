// Benchdiff is the benchmark-regression gate: it runs a fast subset of
// the repo's benchmarks, snapshots ns/op, allocations and derived
// throughput into a JSON baseline, and on later runs diffs against that
// baseline, exiting non-zero when any gated benchmark slows down by more
// than the tolerance.
//
//	go run ./cmd/benchdiff -update   # (re)write BENCH_pipeline.json
//	go run ./cmd/benchdiff           # diff against it, gate at 20%
//	go run ./cmd/benchdiff -gate=false  # report only (CI on shared runners)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultBench is the fast, low-variance subset: the end-to-end pipeline,
// the NLP front end, and the hot inner loops. The table/figure
// reproduction benches are excluded — they are experiments, not gates.
const defaultBench = "PipelinePhases|JSONLDecode|ExtractionThroughput|Tokenize$|^BenchmarkParse$|Posterior$|EvidenceStoreAdd|GroupingThroughput|StoreMergeThroughput|ObsOverhead|IncrementalRefit|WireCodec|DistributedMine"

// obsTolerance caps how much the observability layer may slow the
// pipeline when a sink is attached: ObsOverhead/on is gated against
// ObsOverhead/off from the same run (a paired comparison, so it holds on
// a noisy machine where the absolute baseline would not).
const obsTolerance = 0.02

// allocGated lists the benchmarks whose allocs/op is gated alongside
// ns/op: the hot paths whose allocation discipline the scratch-reuse
// work bought, where a creeping alloc count is a regression even when
// wall time hides it on an idle machine.
var allocGated = map[string]bool{
	"PipelinePhases":       true,
	"JSONLDecode":          true,
	"Tokenize":             true,
	"ExtractionThroughput": true,
	"WireCodec/encode":     true,
	"WireCodec/decode":     true,
}

// Sample is one benchmark's recorded performance.
type Sample struct {
	NsOp     float64            `json:"ns_op"`
	BOp      float64            `json:"b_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the committed snapshot format.
type Baseline struct {
	Go         string            `json:"go"`
	Created    string            `json:"created"`
	Bench      string            `json:"bench"`
	BenchTime  string            `json:"benchtime"`
	Count      int               `json:"count"`
	Benchmarks map[string]Sample `json:"benchmarks"`
}

func main() {
	var (
		bench     = flag.String("bench", defaultBench, "benchmark regex passed to go test")
		benchTime = flag.String("benchtime", "300ms", "per-benchmark measuring time")
		count     = flag.Int("count", 5, "runs per benchmark; the fastest is kept")
		pkg       = flag.String("pkg", ".", "package holding the benchmarks")
		baseline  = flag.String("baseline", "BENCH_pipeline.json", "baseline file to diff against")
		update    = flag.Bool("update", false, "rewrite the baseline instead of diffing")
		tolerance = flag.Float64("tolerance", 0.20, "allowed relative ns/op regression")
		gate      = flag.Bool("gate", true, "exit non-zero on regressions beyond the tolerance")
	)
	flag.Parse()

	cur, means, err := runBenchmarks(*bench, *benchTime, *count, *pkg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(cur) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: regex %q matched no benchmarks\n", *bench)
		os.Exit(2)
	}

	if *update {
		b := Baseline{
			Go:         runtime.Version(),
			Created:    time.Now().UTC().Format(time.RFC3339),
			Bench:      *bench,
			BenchTime:  *benchTime,
			Count:      *count,
			Benchmarks: cur,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baseline, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s with %d benchmarks\n", *baseline, len(cur))
		return
	}

	data, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: no baseline: %v (run with -update to create one)\n", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: corrupt baseline %s: %v\n", *baseline, err)
		os.Exit(2)
	}

	regressions := diff(os.Stdout, base, cur, *tolerance)
	regressions += obsOverheadGate(os.Stdout, means)
	if regressions > 0 && *gate {
		fmt.Printf("\n%d benchmark(s) regressed beyond %.0f%%\n", regressions, *tolerance*100)
		os.Exit(1)
	}
	if regressions > 0 {
		fmt.Printf("\n%d benchmark(s) regressed beyond %.0f%% (gate disabled)\n", regressions, *tolerance*100)
	}
}

// runBenchmarks shells out to go test and keeps, per benchmark, the
// fastest of count runs (minimum ns/op) — the standard way to reject
// scheduler noise on a shared machine.
func runBenchmarks(bench, benchTime string, count int, pkg string) (map[string]Sample, map[string]float64, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", bench, "-benchtime", benchTime,
		"-count", strconv.Itoa(count), "-benchmem", pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, nil, fmt.Errorf("go test -bench: %v\n%s", err, out)
	}
	samples := map[string]Sample{}
	sums := map[string]float64{}
	runs := map[string]int{}
	for _, line := range strings.Split(string(out), "\n") {
		name, s, ok := parseLine(line)
		if !ok {
			continue
		}
		sums[name] += s.NsOp
		runs[name]++
		if prev, seen := samples[name]; !seen || s.NsOp < prev.NsOp {
			samples[name] = s
		}
	}
	// Mean ns/op across all count runs: a lower-variance estimator than
	// min-of-count, used for the paired obs-overhead gate where a few
	// percent of window-to-window noise would swamp a 2% tolerance.
	means := map[string]float64{}
	for name, sum := range sums {
		means[name] = sum / float64(runs[name])
	}
	derive(samples)
	return samples, means, nil
}

// parseLine decodes one `go test -bench` result line:
//
//	BenchmarkTokenize-8   12345   987 ns/op   64 B/op   2 allocs/op
func parseLine(line string) (string, Sample, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", Sample{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		name = name[:i] // strip the GOMAXPROCS suffix
	}
	s := Sample{Metrics: map[string]float64{}}
	got := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", Sample{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			s.NsOp, got = v, true
		case "B/op":
			s.BOp = v
		case "allocs/op":
			s.AllocsOp = v
		default:
			s.Metrics[unit] = v
		}
	}
	if len(s.Metrics) == 0 {
		s.Metrics = nil
	}
	return name, s, got
}

// derive adds throughput metrics computed from ns/op: sentences (and so
// statements) processed per second for the front-end benchmark, documents
// per second for the end-to-end pipeline.
func derive(samples map[string]Sample) {
	if s, ok := samples["ExtractionThroughput"]; ok && s.NsOp > 0 {
		if s.Metrics == nil {
			s.Metrics = map[string]float64{}
		}
		s.Metrics["sentences/sec"] = 1e9 / s.NsOp
		samples["ExtractionThroughput"] = s
	}
	if s, ok := samples["PipelinePhases"]; ok && s.NsOp > 0 {
		if docs := s.Metrics["docs/run"]; docs > 0 {
			s.Metrics["docs/sec"] = docs * 1e9 / s.NsOp
			samples["PipelinePhases"] = s
		}
	}
	// Distribution speedup: the N1/N4 wall-clock ratio of the distributed
	// miner. ~1 on a single-core runner; ≥2 expected with 4 idle cores.
	if n1, ok1 := samples["DistributedMine/N1"]; ok1 {
		if n4, ok4 := samples["DistributedMine/N4"]; ok4 && n4.NsOp > 0 {
			if n4.Metrics == nil {
				n4.Metrics = map[string]float64{}
			}
			n4.Metrics["speedup-vs-1proc"] = n1.NsOp / n4.NsOp
			samples["DistributedMine/N4"] = n4
		}
	}
}

// diff prints the comparison table and returns the number of gated
// regressions.
func diff(w *os.File, base Baseline, cur map[string]Sample, tol float64) int {
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "baseline %s (%s, %s)\n\n", base.Created, base.Go, base.BenchTime)
	fmt.Fprintf(w, "%-24s %14s %14s %8s %8s\n", "benchmark", "base ns/op", "now ns/op", "delta", "allocs")
	regressions := 0
	for _, n := range names {
		c := cur[n]
		b, ok := base.Benchmarks[n]
		if !ok || b.NsOp == 0 {
			fmt.Fprintf(w, "%-24s %14s %14.0f %8s %8.0f  (not in baseline)\n", n, "-", c.NsOp, "-", c.AllocsOp)
			continue
		}
		delta := (c.NsOp - b.NsOp) / b.NsOp
		status := ""
		if delta > tol {
			status = "  REGRESSION"
			regressions++
		} else if delta < -tol {
			status = "  improved"
		}
		if allocGated[n] && b.AllocsOp > 0 {
			if allocDelta := (c.AllocsOp - b.AllocsOp) / b.AllocsOp; allocDelta > tol {
				status += fmt.Sprintf("  ALLOC REGRESSION (%+.1f%%)", allocDelta*100)
				regressions++
			}
		}
		fmt.Fprintf(w, "%-24s %14.0f %14.0f %+7.1f%% %8.0f%s\n", n, b.NsOp, c.NsOp, delta*100, c.AllocsOp, status)
	}
	for n := range base.Benchmarks {
		if _, ok := cur[n]; !ok {
			fmt.Fprintf(w, "%-24s  present in baseline but not measured\n", n)
		}
	}
	return regressions
}

// obsOverheadGate compares each on/off observability pair from the
// current run, on mean ns/op across the count runs: the pipeline with
// live sinks may cost at most obsTolerance over the same pipeline with
// none. ObsOverhead gates the single-process path; DistObsOverhead gates
// the distributed path (worker telemetry frames, coordinator
// federation). Returns the number of breached pairs; an unmeasured pair
// (e.g. under a custom -bench regex) is skipped, not breached.
func obsOverheadGate(w *os.File, means map[string]float64) int {
	breached := 0
	for _, pair := range []string{"ObsOverhead", "DistObsOverhead"} {
		on, okOn := means[pair+"/on"]
		off, okOff := means[pair+"/off"]
		if !okOn || !okOff || off == 0 {
			continue
		}
		delta := (on - off) / off
		status := "ok"
		if delta > obsTolerance {
			status = "OBS OVERHEAD REGRESSION"
			breached++
		}
		fmt.Fprintf(w, "\n%s (on vs off, same run): %+.2f%% (limit %+.0f%%)  %s\n",
			pair, delta*100, obsTolerance*100, status)
	}
	return breached
}
