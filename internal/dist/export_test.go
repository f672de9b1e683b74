package dist

import "time"

// ShortenLivenessWindow sets the coordinator's per-read liveness window
// for one test and returns the function that restores it.
func ShortenLivenessWindow(d time.Duration) (restore func()) {
	old := livenessWindow
	livenessWindow = d
	return func() { livenessWindow = old }
}
