//go:build race

package refs

// raceEnabled lets allocation-count tests skip themselves under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
