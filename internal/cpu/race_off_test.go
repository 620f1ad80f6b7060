//go:build !race

package cpu

// raceEnabled reports that this test binary was built with the race
// detector (see race_on_test.go).
const raceEnabled = false
