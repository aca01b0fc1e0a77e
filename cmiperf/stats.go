package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 drawn from fewer than 1000 samples is one of its
// last few values, not a percentile.
const minBeyond = 10

// dist summarises one latency sample set.
type dist struct {
	N int
	// P50 and P99 are nearest-rank percentiles over every sample of the
	// run's measured cycles.
	P50, P99 float64
	// P99Beyond is how many samples lie beyond the p99 rank.
	P99Beyond int
}

// nearestRank returns the 1-based nearest-rank position of quantile q in
// n samples.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// summarize reports the nearest-rank p50 and p99 of xs (sorted in
// place).
func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if d.N == 0 {
		return d
	}
	sort.Float64s(xs)
	d.P50 = xs[nearestRank(d.N, 0.50)-1]
	r := nearestRank(d.N, 0.99)
	d.P99, d.P99Beyond = xs[r-1], d.N-r
	return d
}

// tailReportable reports whether the p99 has at least minBeyond samples
// beyond it.
func (d dist) tailReportable() bool { return d.P99Beyond >= minBeyond }

// median returns the median of xs (sorted in place; the mean of the two
// middle values for an even count), or 0 for an empty set.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// promSnapshot is one parsed Prometheus text exposition: every sample
// keyed by its series as printed (name plus label set).
type promSnapshot map[string]float64

// parseProm parses the text exposition format the obs registry writes.
// Comment lines are skipped; every other line must be "series value".
func parseProm(text string) (promSnapshot, error) {
	out := make(promSnapshot)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || l[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", line, l)
		}
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[strings.TrimSpace(l[:i])] = v
	}
	return out, sc.Err()
}

// seriesName returns the metric name of a series key (the part before
// its label set).
func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// sum adds every series of the named metric whose labels contain all of
// the given `key="value"` matchers.
func (p promSnapshot) sum(name string, matchers ...string) float64 {
	var t float64
	for k, v := range p {
		if seriesName(k) != name {
			continue
		}
		ok := true
		for _, m := range matchers {
			if !strings.Contains(k, m) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// minus returns the change from an earlier snapshot o to p: the share
// of every counter and histogram series that falls between them.
func (p promSnapshot) minus(o promSnapshot) promSnapshot {
	d := make(promSnapshot, len(p))
	for k, v := range p {
		d[k] = v - o[k]
	}
	return d
}

// histMean is the mean observation of a histogram (_sum / _count), 0
// when it observed nothing.
func (p promSnapshot) histMean(name string) float64 {
	return ratio(p.sum(name+"_sum"), p.sum(name+"_count"))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
