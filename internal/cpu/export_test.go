package cpu

// SetSkipDeadCycles turns dead-cycle skipping on or off for runs started
// after it returns, and returns a function that restores the previous
// setting. A test that calls it must not overlap other runs.
func SetSkipDeadCycles(on bool) (restore func()) {
	old := skipDeadCycles
	skipDeadCycles = on
	return func() { skipDeadCycles = old }
}

// RaceEnabled reports whether the test binary was built with the race
// detector.
const RaceEnabled = raceEnabled
