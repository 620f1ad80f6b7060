package exitcode

import "testing"

// TestTableIsStable pins the documented numbers: these are a scripted
// interface (CI jobs and operator runbooks test against them), so any
// renumbering must be deliberate and break this test first.
func TestTableIsStable(t *testing.T) {
	want := map[string]int{
		"OK":              0,
		"Err":             1,
		"Validation":      2,
		"Partial":         3,
		"Deadlock":        3,
		"Interrupted":     4,
		"BenchRegression": 4,
		"FsckDamaged":     5,
	}
	got := map[string]int{
		"OK":              OK,
		"Err":             Err,
		"Validation":      Validation,
		"Partial":         Partial,
		"Deadlock":        Deadlock,
		"Interrupted":     Interrupted,
		"BenchRegression": BenchRegression,
		"FsckDamaged":     FsckDamaged,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}
}
