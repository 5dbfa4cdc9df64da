package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// rng is a SplitMix64 generator. The capstorm scripts are drawn from it and
// not from math/rand, so a seed names the same script under every Go
// release.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform draw from [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// quartiles returns the first quartile, the median and the third quartile
// of vs the way Python's statistics.quantiles(vs, n=4) does (the
// "exclusive" method), so the spreads printed here are the ones the
// acceptance rule computes. One value is its own three quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 on the 1-based sorted values, interpolated.
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median returns the middle value of vs (mean of the two middle values for
// an even count), 0 for none.
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// spread returns the interquartile distance of vs as a share of the median.
func spread(vs []float64) float64 {
	q1, med, q3 := quartiles(vs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest value with at least p percent of the
// samples at or below it. It never interpolates, so simulated cycle counts
// stay whole numbers.
func percentile(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func sortedCopy(vs []uint64) []uint64 {
	s := append([]uint64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// digest hashes every simulated statistic of a pass. Two passes with equal
// digests simulated the same machine history; a host-only optimisation must
// leave it unchanged.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }
