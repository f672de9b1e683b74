package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads: the
// names it must print and the bound of every end-to-end metric.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// result is the object a run ends its standard output with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one untraced workload in a fresh process of this binary —
// so peak RSS and CPU are that run's alone — and parses its result line.
func (e *env) runChild(workload string) (*result, error) {
	out, err := e.child("-workload", workload, "-trace", "0",
		"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64), "-surveyor", e.surveyor)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &r, nil
}

// selfcheck runs two full sets of untraced runs back to back and reports,
// per workload and end-to-end metric, both medians and whether they agree
// within the metric's bound. A pair outside its bound is unresolved: the
// benchmark cannot tell a change of that size from its own noise.
func (e *env) selfcheck(stdout io.Writer) error {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, wl := range workloads {
			if sets[i][wl.name], err = e.runChild(wl.name); err != nil {
				return err
			}
		}
	}
	unresolved := 0
	fmt.Fprintf(stdout, "%-18s %-16s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "differ", "bound")
	for _, wl := range workloads {
		a, b := sets[0][wl.name], sets[1][wl.name]
		for _, d := range m.EndToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			differ := math.Abs(x-y) / math.Min(x, y)
			verdict := "ok"
			if !(differ <= d.Bound) {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(stdout, "%-18s %-16s %14.6g %14.6g %7.2f%% %5.0f%% %s\n",
				wl.name, d.Name, x, y, 100*differ, 100*d.Bound, verdict)
		}
		fmt.Fprintf(stdout, "%-18s %-16s %14d %14d\n", wl.name, "failed", a.Failed, b.Failed)
	}
	if unresolved > 0 {
		return fmt.Errorf("selfcheck: %d pairs outside their bound", unresolved)
	}
	return nil
}
