package benefit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMajorityEmpty(t *testing.T) {
	if got := MajorityCorrectProb(nil); got != 0.5 {
		t.Fatalf("empty panel = %v, want 0.5", got)
	}
}

func TestMajoritySingle(t *testing.T) {
	for _, a := range []float64{0.5, 0.7, 0.99} {
		if got := MajorityCorrectProb([]float64{a}); math.Abs(got-a) > 1e-12 {
			t.Fatalf("single voter %v → %v", a, got)
		}
	}
}

func TestMajorityTwoVotersWithTie(t *testing.T) {
	// Two voters with accuracy a: correct if both right (a²) plus half of
	// the tie mass (2a(1-a)/2 = a(1-a)) → a² + a − a² = a.
	for _, a := range []float64{0.6, 0.8} {
		got := MajorityCorrectProb([]float64{a, a})
		if math.Abs(got-a) > 1e-12 {
			t.Fatalf("two voters %v → %v, want %v", a, got, a)
		}
	}
}

func TestMajorityThreeVotersCondorcet(t *testing.T) {
	// Classic Condorcet jury: 3 voters at 0.8 → 0.8³ + 3·0.8²·0.2 = 0.896.
	got := MajorityCorrectProb([]float64{0.8, 0.8, 0.8})
	if math.Abs(got-0.896) > 1e-12 {
		t.Fatalf("got %v, want 0.896", got)
	}
}

func TestMajorityImprovesWithGoodVoters(t *testing.T) {
	// Condorcet's jury theorem: with voters above 0.5, bigger odd panels are
	// better.
	prev := 0.0
	for n := 1; n <= 9; n += 2 {
		accs := make([]float64, n)
		for i := range accs {
			accs[i] = 0.7
		}
		p := MajorityCorrectProb(accs)
		if p <= prev {
			t.Fatalf("panel %d did not improve: %v <= %v", n, p, prev)
		}
		prev = p
	}
}

func TestMajorityCoinFlippersStayAtHalf(t *testing.T) {
	accs := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	if got := MajorityCorrectProb(accs); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("coin-flip panel = %v", got)
	}
}

// bruteMajority enumerates all 2^n outcomes.
func bruteMajority(accs []float64) float64 {
	n := len(accs)
	if n == 0 {
		return 0.5
	}
	total := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		p := 1.0
		correct := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				p *= accs[i]
				correct++
			} else {
				p *= 1 - accs[i]
			}
		}
		if 2*correct > n {
			total += p
		} else if 2*correct == n {
			total += 0.5 * p
		}
	}
	return total
}

func TestMajorityMatchesBruteForce(t *testing.T) {
	cases := [][]float64{
		{0.6},
		{0.9, 0.55},
		{0.8, 0.7, 0.6},
		{0.95, 0.5, 0.5, 0.5},
		{0.6, 0.7, 0.8, 0.9, 0.55},
		{0.51, 0.52, 0.53, 0.54, 0.55, 0.56},
	}
	for _, accs := range cases {
		got := MajorityCorrectProb(accs)
		want := bruteMajority(accs)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%v: DP %v vs brute %v", accs, got, want)
		}
	}
}

// Property: the DP always matches brute force for small random panels, and
// the result is within [0,1].
func TestQuickMajorityMatchesBrute(t *testing.T) {
	f := func(raw []uint16) bool {
		n := len(raw)
		if n > 8 {
			n = 8
		}
		accs := make([]float64, n)
		for i := 0; i < n; i++ {
			accs[i] = 0.5 + float64(raw[i]%500)/1000 // [0.5, 1)
		}
		got := MajorityCorrectProb(accs)
		if got < 0 || got > 1 {
			return false
		}
		return math.Abs(got-bruteMajority(accs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: diminishing returns — the gain from the k-th identical voter
// shrinks as the panel grows (checked on odd panel sizes where majority
// strictly improves).
func TestMajorityDiminishingReturns(t *testing.T) {
	a := 0.75
	gain := func(n int) float64 {
		accs := make([]float64, n)
		for i := range accs {
			accs[i] = a
		}
		// Gain of going n → n+2 (keeping parity avoids tie effects).
		more := append(append([]float64{}, accs...), a, a)
		return MajorityCorrectProb(more) - MajorityCorrectProb(accs)
	}
	if !(gain(1) > gain(3) && gain(3) > gain(5)) {
		t.Fatalf("gains not diminishing: %v %v %v", gain(1), gain(3), gain(5))
	}
}
