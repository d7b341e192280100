//go:build !race

package api

// raceEnabled reports that the test binary runs under the race
// detector, whose instrumentation allocates on its own.
const raceEnabled = false
