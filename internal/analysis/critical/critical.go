// Package critical records which packages of the repository each
// surveyorlint analyzer binds to. Paths are matched by suffix so the same
// tables work for the real module ("repro/internal/evidence"), for the
// analyzers' testdata fixtures ("internal/evidence"), and for a future
// module rename.
package critical

import "strings"

// determinism lists the packages under the bit-identical determinism
// contract: their outputs must not depend on map iteration order, ambient
// randomness, or the clock. PR 1's differential harness checks the
// contract dynamically; detmap and detrand enforce it statically.
var determinism = []string{
	"internal/core",
	"internal/evidence",
	"internal/testkit",
	"internal/wire",
	"internal/wire/framing",
	"internal/dist",
}

// extractionLoop is the one package outside the determinism set that is
// bound by the write-only telemetry contract: its workers record
// observability state on every document and must never read it back.
var extractionLoop = []string{
	"internal/pipeline",
}

// determinismLintExtra extends the detmap/detrand lint scope beyond the
// bit-identical core: the incremental miner must produce the same epochs
// for the same inputs, the observability layer's exported snapshots
// must be stably ordered, and the lexicon's dense word ids must follow
// call order — in the lexicon itself and in the knowledge base, which
// feeds it words. These packages are *not* under the write-only
// telemetry contract (obs legitimately reads its own state back), so
// they extend DeterminismLint but not Observability.
var determinismLintExtra = []string{
	"internal/incremental",
	"internal/obs",
	"internal/nlp/lexicon",
	"internal/kb",
}

// errContract lists the packages whose exported functions must return
// wrapped or typed errors and compare sentinels with errors.Is (the
// errflow analyzer) — the decode and transport paths where a swallowed
// or identity-compared error becomes a silent data loss. internal/obs
// joined when it grew its own wire codec (telemetry frames) and
// federation errors an operator must see; internal/dist's membership
// covers the self-healing scheduler and the socket transport, whose
// retry decisions hinge on errors.Is against typed sentinels
// (ErrShardDeadline, the injected-fault markers).
var errContract = []string{
	"internal/wire",
	"internal/wire/framing",
	"internal/dist",
	"internal/incremental",
	"internal/corpus",
	"internal/obs",
}

// claimCommit lists the packages whose worker loops follow PR 5's
// "claimed documents always finish" rule: cancellation may be observed
// before claiming a document, never between claim and commit (the
// ctxflow analyzer). In internal/dist the same discipline governs the
// retry scheduler: an attempt may be abandoned at its deadline, but a
// shard commits all-or-nothing through its exactly-once commit cell.
var claimCommit = []string{
	"internal/pipeline",
	"internal/dist",
}

// Determinism reports whether the package is determinism-critical.
func Determinism(pkgPath string) bool { return matches(pkgPath, determinism) }

// DeterminismLint reports whether detmap/detrand bind to the package:
// the determinism core plus the incremental and obs layers.
func DeterminismLint(pkgPath string) bool {
	return Determinism(pkgPath) || matches(pkgPath, determinismLintExtra)
}

// ErrContract reports whether the package is under the wrapped-typed-
// error contract.
func ErrContract(pkgPath string) bool { return matches(pkgPath, errContract) }

// ClaimCommit reports whether the package's worker loops are under the
// claim-then-finish cancellation rule.
func ClaimCommit(pkgPath string) bool { return matches(pkgPath, claimCommit) }

// Library reports whether the package is library code (an "internal"
// path element), where fresh contexts (context.Background/TODO) are
// forbidden — entry points (cmd, examples, the surveyor facade) own
// context creation.
func Library(pkgPath string) bool {
	for _, el := range strings.Split(pkgPath, "/") {
		if el == "internal" {
			return true
		}
	}
	return false
}

// Observability reports whether the package is bound by the write-only
// telemetry contract: everything determinism-critical, and the extraction
// loop, records observability state but must never read it back (the
// obsflow analyzer enforces this).
func Observability(pkgPath string) bool {
	return Determinism(pkgPath) || matches(pkgPath, extractionLoop)
}

func matches(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if PathHasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

// PathHasSuffix reports whether path equals suffix or ends with
// "/"+suffix — i.e. suffix matches on package-path element boundaries.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
