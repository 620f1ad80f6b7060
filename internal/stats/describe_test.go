package stats

import (
	"math"
	"testing"
	"unicode/utf8"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // unsorted on purpose
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{25, 2},
		{50, 3},
		{75, 4},
		{100, 5},
		{90, 4.6},
		{-5, 1},
		{120, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("Percentile modified its input")
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("sparkline %q has %d cells, want 8", s, utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[len(runes)-1] != '█' {
		t.Errorf("sparkline %q should rise from min to max", s)
	}
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Errorf("monotone series produced non-monotone sparkline %q", s)
		}
	}
	if Sparkline(nil) != "" {
		t.Error("empty series should render empty")
	}
	if flat := Sparkline([]float64{2, 2, 2}); flat != "▁▁▁" {
		t.Errorf("flat series rendered %q", flat)
	}
}
