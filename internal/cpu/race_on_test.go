//go:build race

package cpu

// raceEnabled reports that this test binary was built with the race
// detector, which instruments the cycle loop; allocation counts taken
// under it do not describe the production build.
const raceEnabled = true
