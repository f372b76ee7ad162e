package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfUniformWhenThetaZero(t *testing.T) {
	z := NewZipf(10, 0)
	for k := 0; k < 10; k++ {
		if p := z.PMF(k); math.Abs(p-0.1) > 1e-12 {
			t.Errorf("PMF(%d) = %v, want 0.1", k, p)
		}
	}
}

func TestZipfPMFSumsToOne(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 1, 1.5, 2} {
		z := NewZipf(100, theta)
		sum := 0.0
		for k := 0; k < 100; k++ {
			sum += z.PMF(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("theta=%v: PMF sums to %v", theta, sum)
		}
	}
}

func TestZipfMonotoneDecreasing(t *testing.T) {
	z := NewZipf(50, 1.2)
	for k := 1; k < 50; k++ {
		if z.PMF(k) > z.PMF(k-1)+1e-15 {
			t.Fatalf("PMF not decreasing at %d", k)
		}
	}
}

func TestZipfSampleInRange(t *testing.T) {
	r := NewRNG(21)
	z := NewZipf(17, 1.0)
	for i := 0; i < 10000; i++ {
		k := z.Sample(r)
		if k < 0 || k >= 17 {
			t.Fatalf("sample %d out of range", k)
		}
	}
}

func TestZipfSampleMatchesPMF(t *testing.T) {
	r := NewRNG(22)
	z := NewZipf(8, 1.0)
	const n = 200000
	counts := make([]int, 8)
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for k := 0; k < 8; k++ {
		got := float64(counts[k]) / n
		want := z.PMF(k)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: frequency %v vs PMF %v", k, got, want)
		}
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	flat := NewZipf(100, 0.2)
	steep := NewZipf(100, 1.5)
	if steep.PMF(0) <= flat.PMF(0) {
		t.Fatalf("higher theta should concentrate mass on rank 0: %v vs %v",
			steep.PMF(0), flat.PMF(0))
	}
}

func TestZipfSingleRank(t *testing.T) {
	z := NewZipf(1, 1.3)
	r := NewRNG(23)
	for i := 0; i < 100; i++ {
		if z.Sample(r) != 0 {
			t.Fatal("single-rank Zipf must always return 0")
		}
	}
	if z.PMF(0) != 1 {
		t.Fatalf("PMF(0) = %v", z.PMF(0))
	}
}

func TestZipfPMFOutOfRange(t *testing.T) {
	z := NewZipf(5, 1)
	if z.PMF(-1) != 0 || z.PMF(5) != 0 {
		t.Fatal("out-of-range PMF must be 0")
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n     int
		theta float64
	}{{0, 1}, {-1, 1}, {5, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d,%v) did not panic", tc.n, tc.theta)
				}
			}()
			NewZipf(tc.n, tc.theta)
		}()
	}
}

// Property: samples are always valid ranks for arbitrary sizes/skews.
func TestQuickZipfSampleValid(t *testing.T) {
	f := func(seed uint64, n uint8, theta10 uint8) bool {
		size := int(n%200) + 1
		theta := float64(theta10%30) / 10
		z := NewZipf(size, theta)
		r := NewRNG(seed)
		for i := 0; i < 20; i++ {
			k := z.Sample(r)
			if k < 0 || k >= size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// PMF returns the probability of rank k.
func (z *Zipf) PMF(k int) float64 {
	if k < 0 || k >= len(z.cdf) {
		return 0
	}
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}
