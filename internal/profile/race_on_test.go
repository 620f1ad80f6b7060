//go:build race

package profile

// raceEnabled reports that this test binary was built with the race
// detector, which slows the emulator by an order of magnitude.
const raceEnabled = true
