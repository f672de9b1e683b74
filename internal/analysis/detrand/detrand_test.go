package detrand_test

import (
	"testing"

	"repro/internal/analysis/detrand"
	"repro/internal/analysis/framework/analysistest"
)

func TestDetrand(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), detrand.Analyzer,
		"internal/evidence", "internal/obs", "pkg/other")
}
