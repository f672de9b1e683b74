package obs

import (
	"sync/atomic"
	"time"
)

// Clock is the monotonic time source every timestamp in the observability
// layer flows through. Readings are durations since an arbitrary fixed
// origin, so they are comparable with each other but carry no wall-clock
// meaning. Implementations must be safe for concurrent use.
//
// The clock lives here — and only here — so the rest of the system never
// reads time directly (testkit's TestNoAmbientSources lists the few
// library sites that may), and the pipeline obtains durations exclusively
// through Span.End.
type Clock interface {
	Now() time.Duration
}

// systemClock reads the process monotonic clock, anchored at construction.
type systemClock struct {
	base time.Time
}

func (c *systemClock) Now() time.Duration { return time.Since(c.base) }

// NewSystemClock returns a Clock backed by the runtime's monotonic clock,
// with its origin at the call. It is the one real wall-clock source
// behind Clock; tests substitute ManualClock.
func NewSystemClock() Clock { return &systemClock{base: time.Now()} }

// defaultClock serves every component that was not given an explicit
// clock, so that a nil *RunObs still yields meaningful phase durations.
var defaultClock = NewSystemClock()

// clockOrDefault maps nil to the shared system clock.
func clockOrDefault(c Clock) Clock {
	if c == nil {
		return defaultClock
	}
	return c
}

// ManualClock is a test clock advanced by hand. The zero value starts at
// zero elapsed time and is ready to use.
type ManualClock struct {
	now atomic.Int64
}

// Now returns the current manual reading.
func (c *ManualClock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) { c.now.Add(int64(d)) }

// Set jumps the clock to an absolute reading.
func (c *ManualClock) Set(d time.Duration) { c.now.Store(int64(d)) }
