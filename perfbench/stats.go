package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples a percentile must leave above it before the
// benchmark reports it: a tail figure resting on fewer samples is noise.
const minTail = 10

// percentile returns the q-th percentile (0 < q < 100) of xs by linear
// interpolation between closest ranks, and whether it may be reported:
// at least minTail samples must lie strictly above its rank.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	return v, len(s)-1-hi >= minTail
}

// median is the 50th percentile; it needs no tail.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// geomean is the geometric mean of strictly positive values; it is 0 for
// no values and NaN when any value is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// metricName is the grammar every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetricName rejects a name outside metricName.
func checkMetricName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricName)
	}
	return nil
}
