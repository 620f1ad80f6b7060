package stats

import (
	"math"
	"sort"
	"strings"
)

// Descriptive helpers for the telemetry tooling (spearstat): percentiles
// and ASCII sparklines for interval time series.

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice and does not modify its input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sparkRunes are the eight block heights a sparkline cell can take.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders xs as a one-line ASCII-art graph, scaling values
// linearly between the series minimum and maximum. A flat series renders
// at the lowest height; an empty series renders as "".
func Sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	var b strings.Builder
	span := hi - lo
	for _, x := range xs {
		i := 0
		if span > 0 {
			i = int((x - lo) / span * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}
