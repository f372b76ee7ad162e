package benefit

// MajorityCorrectProb returns the probability that a majority vote over
// independent binary answers with the given per-worker correctness
// probabilities yields the correct label.  Exact ties (possible with an even
// number of voters) are broken uniformly at random, contributing half their
// probability mass.
//
// This is the per-task quality oracle of the MBA-S (diminishing-returns)
// objective: as workers are added to a task, each additional vote improves
// the majority outcome by less and less, which is what makes the set
// function monotone with diminishing returns and the overall problem
// NP-hard (DESIGN.md §1.1).
//
// The computation is the standard Poisson-binomial dynamic program over the
// number of correct answers: O(n²) time, O(n) space.  An empty set returns
// 0.5 — with no answers, the requester is left guessing.
func MajorityCorrectProb(accs []float64) float64 {
	n := len(accs)
	if n == 0 {
		return 0.5
	}
	// dist[k] = P(exactly k of the answers seen so far are correct).
	dist := make([]float64, n+1)
	dist[0] = 1
	for i, a := range accs {
		// Walk k downward so each worker is counted once.
		for k := i + 1; k >= 1; k-- {
			dist[k] = dist[k]*(1-a) + dist[k-1]*a
		}
		dist[0] *= 1 - a
	}
	p := 0.0
	for k := 0; k <= n; k++ {
		switch {
		case 2*k > n:
			p += dist[k]
		case 2*k == n:
			p += 0.5 * dist[k]
		}
	}
	return p
}
