package core

// FilterProblem derives a sub-problem containing only the edges e for
// which keep(p, e) holds.  The instance and benefit model are shared; edge
// values are copied, so edge indices of the filtered problem do NOT
// correspond to indices of the original — treat the result as a problem in
// its own right.
//
// The canonical use is a per-pair quality floor (quality SLA): requesters
// on real platforms often refuse workers below a competence bar regardless
// of how cheap or willing they are.  MinQuality builds that filter; the
// SLA ablation (X-Abl6) sweeps it and measures what the bar costs in
// coverage and worker-side benefit.
func FilterProblem(p *Problem, keep func(p *Problem, e int) bool) *Problem {
	nW, nT := p.In.NumWorkers(), p.In.NumTasks()
	out := &Problem{In: p.In, Model: p.Model}
	// Two-pass counted build, mirroring NewProblem: count surviving edges
	// per node, prefix-sum into offsets, then copy.  Filtering preserves
	// the source's worker-major order, so the columns need no reordering.
	keepMask := make([]bool, p.NumEdges())
	offW := make([]int32, nW+1)
	offT := make([]int32, nT+1)
	total := 0
	for e := range keepMask {
		if keep(p, e) {
			keepMask[e] = true
			offW[p.W[e]+1]++
			offT[p.T[e]+1]++
			total++
		}
	}
	for w := 0; w < nW; w++ {
		offW[w+1] += offW[w]
	}
	for t := 0; t < nT; t++ {
		offT[t+1] += offT[t]
	}
	out.W = make([]int32, 0, total)
	out.T = make([]int32, 0, total)
	out.M = make([]float64, 0, total)
	out.offW, out.offT = offW, offT
	for e, ok := range keepMask {
		if ok {
			out.W = append(out.W, p.W[e])
			out.T = append(out.T, p.T[e])
			out.M = append(out.M, p.M[e])
		}
	}
	return out
}

// MinQuality returns a FilterProblem predicate keeping only pairs whose
// requester-side quality is at least q.
func MinQuality(q float64) func(p *Problem, e int) bool {
	return func(p *Problem, e int) bool { return p.Quality(e) >= q }
}
