package main

import (
	"bytes"
	"os"
	"testing"
)

// TestExperimentsGolden pins every number `experiments -scale 1 -seed 1
// all` prints against a committed file: the tables EXPERIMENTS.md quotes
// are program output, so a change that moves one shows up as a reviewed
// diff of the file. Wall-clock readings go to stderr and are not compared.
func TestExperimentsGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "1", "-seed", "1", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d\n%s", code, stderr.String())
	}
	const path = "testdata/experiments_scale1.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Errorf("experiments output differs from %s; got:\n%s", path, stdout.String())
	}
}

// TestUnknownExperiment: a name outside the list is a usage error that
// prints nothing on stdout.
func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"table9"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Fatalf("run(table9) = %d with %d bytes of stdout, want 2 and none\n%s", code, stdout.Len(), stderr.String())
	}
}
