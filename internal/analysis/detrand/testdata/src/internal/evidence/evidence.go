// Fixture for the detrand analyzer. The package path ends in
// "internal/evidence", so it counts as determinism-critical.
package evidence

import (
	crand "crypto/rand"
	"math/rand"
	"time"
)

// globalDraw uses the ambient global RNG: flagged.
func globalDraw() int {
	return rand.Intn(10) // want `ambient global RNG`
}

// globalShuffle is another global-RNG entry point: flagged.
func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { // want `ambient global RNG`
		xs[i], xs[j] = xs[j], xs[i]
	})
}

// wallClock reads the real clock: flagged.
func wallClock() int64 {
	return time.Now().UnixNano() // want `time.Now is nondeterministic`
}

// entropy reads system entropy: flagged.
func entropy(buf []byte) {
	crand.Read(buf) // want `system entropy`
}

// seeded constructs a generator from an explicit seed: clean. The
// rand.New / rand.NewSource constructors are the sanctioned way to build
// the generator that then gets threaded as a parameter.
func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// threaded receives the seeded generator as a parameter, the
// internal/corpus idiom: clean.
func threaded(r *rand.Rand) float64 {
	return r.Float64()
}

// elapsed arithmetic on an injected timestamp is fine: clean.
func elapsed(start time.Time, d time.Duration) time.Time {
	return start.Add(d)
}
