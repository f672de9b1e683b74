package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the benchmark re-execute itself: under go test the binary
// the -generate child runs is this one.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-generate" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs every workload of BENCHMARK.json at -quick size, untraced
// and traced, and checks that each run prints exactly the declared metrics,
// once each and with the declared units, in the report and in the result
// object, and that the traced run carries the closure row.
func TestSmoke(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	surveyor := filepath.Join(dir, "surveyor")
	if out, err := exec.Command("go", "build", "-o", surveyor, "repro/cmd/surveyor").CombinedOutput(); err != nil {
		t.Fatalf("build cmd/surveyor: %v\n%s", err, out)
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	endToEnd, layers := map[string]string{}, map[string]string{}
	for _, d := range m.EndToEnd {
		endToEnd[d.Name] = d.Unit
	}
	for _, d := range m.PerLayer {
		layers[d.Name] = d.Unit
	}
	if len(layers) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the ledger has %d", len(layers), len(perLayer))
	}
	if _, ok := layers["trace.unaccounted_share"]; !ok {
		t.Error("the closure row trace.unaccounted_share is not declared")
	}

	for i, wl := range m.Workloads {
		if wl.Name != workloads[i].name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, wl.Name, workloads[i].name)
		}
		for trace, declared := range []map[string]string{endToEnd, layers} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-quick", "-seconds", "0", "-workload", wl.Name, "-trace", strconv.Itoa(trace),
				"-dir", dir, "-surveyor", surveyor}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", wl.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")

			printed := map[string]int{}
			for _, line := range lines[:len(lines)-1] {
				if strings.HasPrefix(line, "#") {
					continue
				}
				f := strings.Fields(line)
				if len(f) < 3 || !metricName.MatchString(f[0]) {
					t.Errorf("%s trace=%d: not a metric line: %q", wl.Name, trace, line)
					continue
				}
				printed[f[0]]++
				if unit, ok := declared[f[0]]; !ok || unit != f[2] {
					t.Errorf("%s trace=%d: printed %s [%s], declared unit %q (declared: %t)", wl.Name, trace, f[0], f[2], unit, ok)
				}
			}
			for name := range declared {
				if printed[name] != 1 {
					t.Errorf("%s trace=%d: %s printed %d times", wl.Name, trace, name, printed[name])
				}
			}

			var keys map[string]json.RawMessage
			var r result
			last := []byte(lines[len(lines)-1])
			if err := json.Unmarshal(last, &keys); err != nil {
				t.Fatalf("%s trace=%d: result line: %v", wl.Name, trace, err)
			}
			if err := json.Unmarshal(last, &r); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%d: result line %s", wl.Name, trace, last)
			}
			if len(r.Metrics) != len(declared) {
				t.Errorf("%s trace=%d: result has %d metrics, %d declared", wl.Name, trace, len(r.Metrics), len(declared))
			}
			for name, v := range r.Metrics {
				if declared[name] != v.Unit {
					t.Errorf("%s trace=%d: result metric %s [%s], declared %q", wl.Name, trace, name, v.Unit, declared[name])
				}
			}
		}
	}
}
