// Package tools pins the versions of the external static-analysis tools
// the CI lint job runs. The module's dependency graph is intentionally
// empty — everything in the repository builds with the standard library
// alone — so the classic blank-import tools.go pattern is unavailable
// (it would add the tools to go.mod). Instead the pins live here as
// constants, CI invokes them with `go run <pin>`, and TestCIUsesPinnedTools
// fails if the workflow and these constants ever drift apart.
//
// Bump a version by editing the constant and the workflow together; the
// test enforces that they move in lockstep.
package tools

const (
	// Staticcheck is honnef.co's checker suite; its findings gate the
	// lint job alongside gofmt. The repository's own code contracts are
	// carried by its tests (DESIGN.md, "Static analysis").
	Staticcheck = "honnef.co/go/tools/cmd/staticcheck@2024.1.1"

	// Govulncheck scans the (empty) dependency graph and the standard
	// library version for known vulnerabilities.
	Govulncheck = "golang.org/x/vuln/cmd/govulncheck@v1.1.3"
)
