package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
// A p99 over 300 samples rests on three points and swings run to run;
// with ten beyond it the tail is a measurement rather than an accident.
const minTail = 10

// median returns the middle sample of xs (the mean of the two middle
// samples for an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hdMedian is the Harrell-Davis estimate of the median of xs: the mean
// of its order statistics weighted by a Beta((n+1)/2, (n+1)/2) density
// over their ranks; 0 for no samples. The sample median of a few dozen
// latencies is one or two of them, and jumps across any gap in the data
// between the two middle values when a neighbour swaps places: the 30
// serve batch cells read 160 or 185 ms on the same code. This estimate
// draws on the ranks around the middle and moves smoothly instead.
func hdMedian(xs []float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	s := sortedCopy(xs)
	a := float64(n+1) / 2
	ga, _ := math.Lgamma(a)
	g2a, _ := math.Lgamma(2 * a)
	pdf := func(t float64) float64 {
		return math.Exp((a-1)*(math.Log(t)+math.Log(1-t)) + g2a - 2*ga)
	}
	// Each order statistic's weight is the density's mass over its rank
	// interval [i/n, (i+1)/n], by Simpson's rule on m subintervals; the
	// points are exact ratios, so none falls outside [0, 1].
	const m = 16
	at := func(j int) float64 { return pdf(float64(j) / float64(n*m)) }
	var sum, wsum float64
	for i := 0; i < n; i++ {
		w := at(i*m) + at((i+1)*m)
		for k := 1; k < m; k++ {
			w += float64(2+2*(k%2)) * at(i*m+k)
		}
		sum += w * s[i]
		wsum += w
	}
	return sum / wsum
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// reports false, and no value, when fewer than minTail samples lie
// beyond that rank: such a percentile is not supported by the sample.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	// 1-based nearest rank; the epsilon keeps 0.9*100 from rounding up
	// to rank 91.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, false
	}
	return sortedCopy(xs)[rank-1], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// geomean is the geometric mean of positive xs; 0 if any is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// digest fingerprints a workload's outputs: records are length-prefixed
// so that no two different record sequences hash alike.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	d.h.Write(n[:])
	d.h.Write(b)
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:32] }
