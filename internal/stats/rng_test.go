package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// Child must be deterministic: splitting again from the same parent state
	// (reconstructed) yields the same child stream.
	parent2 := NewRNG(7)
	child2 := parent2.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatalf("split children diverged at step %d", i)
		}
	}
}

func TestFloat64Range01(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(4)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d want ~%.0f", k, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := NewRNG(6)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("IntRange(3,5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("IntRange(3,5) only produced %v", seen)
	}
	if got := r.IntRange(9, 9); got != 9 {
		t.Fatalf("IntRange(9,9) = %d", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(10)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sq += x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		x := r.TruncNormal(0.5, 0.3, 0, 1)
		if x < 0 || x > 1 {
			t.Fatalf("TruncNormal escaped bounds: %v", x)
		}
	}
	// Pathological interval far from the mean must still terminate and land
	// inside the bounds.
	x := r.TruncNormal(0, 0.001, 10, 11)
	if x < 10 || x > 11 {
		t.Fatalf("TruncNormal pathological clamp = %v", x)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(12)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(2, 0.8); v <= 0 {
			t.Fatalf("LogNormal emitted non-positive %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(15)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

// Property: Intn output is always in range, for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		size := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(size)
			if v < 0 || v >= size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mul64 agrees with big-integer multiplication on the low 64 bits
// and with float estimation on the high bits for small operands.
func TestQuickMul64Lo(t *testing.T) {
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMul64KnownValues(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}
