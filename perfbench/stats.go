package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(s) {
		hi = len(s) - 1
	}
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailMinBeyond = 10

// tailPct returns the highest percentile on the ladder that leaves at
// least tailMinBeyond of n samples beyond it, or 100 (the maximum) when
// none does.
func tailPct(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 100*tailMinBeyond-1e-6 {
			return p
		}
	}
	return 100
}

// tail returns the tailPct percentile of xs with the percentile.
// Missing results (failures) are passed as +Inf and count as beyond
// any limit.
func tail(xs []float64) (value, pct float64) {
	p := tailPct(len(xs))
	return quantile(xs, p/100), p
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of xs
// (0 < q < 1): a mean of all order statistics weighted by a
// Beta((n+1)q, (n+1)(1-q)) distribution over their ranks. Where the
// samples form a few clusters with gaps between them, as the cells of
// a sweep of several kinds do, it moves smoothly as samples shift
// between clusters instead of jumping across a gap as a single order
// statistic does. A weighted +Inf (a failure) makes the estimate +Inf.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i, x := range s {
		cdf := regIncBeta(float64(i+1)/float64(n), a, b)
		w := cdf - prev
		prev = cdf
		if w <= 1e-12 {
			continue
		}
		if math.IsInf(x, 1) {
			return math.Inf(1)
		}
		est += w * x
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// from its continued fraction (modified Lentz), evaluated on whichever
// of x and 1-x the fraction converges fast for.
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - regIncBeta(1-x, b, a)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab-la-lb+a*math.Log(x)+b*math.Log(1-x)) / a
	const tiny = 1e-300
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= 1000; i++ {
		m := float64(i / 2)
		var num float64
		switch {
		case i == 0:
			num = 1
		case i%2 == 0:
			num = m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		default:
			num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		}
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		cd := c * d
		f *= cd
		if math.Abs(1-cd) < 1e-14 {
			break
		}
	}
	return front * (f - 1)
}

// latencyMetrics adds the p50 and tail metrics over per-operation
// latencies in milliseconds, as Harrell-Davis estimates (the tail as
// the maximum when too few samples allow any ladder percentile). A
// failed operation is +Inf; an estimate it reaches is reported as
// capMS, the limit every failure misses.
func latencyMetrics(o *outcome, lat []float64, capMS float64) {
	clip := func(v float64) float64 { return math.Min(v, capMS) }
	o.add(metric{Name: "p50_ms", Value: clip(hdQuantile(lat, 0.5)), Unit: "ms", Stat: "median (Harrell-Davis)", Samples: len(lat)})
	v, stat := quantile(lat, 1), "max"
	if p := tailPct(len(lat)); p < 100 {
		v, stat = hdQuantile(lat, p/100), fmt.Sprintf("p%g (Harrell-Davis)", p)
	}
	o.add(metric{Name: "tail_ms", Value: clip(v), Unit: "ms", Stat: stat, Samples: len(lat)})
}

// medianDuration is the median of ds as a duration.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
