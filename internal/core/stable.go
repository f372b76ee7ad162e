package core

import (
	"container/heap"
	"sort"

	"repro/internal/stats"
)

// StableMatching computes a worker-proposing deferred-acceptance (Gale–
// Shapley) assignment: workers rank tasks by their own utility (B), tasks
// rank workers by expected quality (Q), and proposals are held or rejected
// until no rejected proposal remains.  Capacities generalise the classic
// algorithm to the many-to-many (hospitals/residents-style) setting; the
// preference structure is responsive, so the outcome is stable and
// worker-optimal among stable assignments.
//
// Stability is the economist's answer to the mutual-benefit question: no
// worker-task pair should prefer each other over what they got.  The
// stability-vs-efficiency ablation (X-Abl5) measures what that guarantee
// costs in total mutual benefit relative to the optimisation-based
// algorithms — and how many blocking pairs those algorithms leave behind.
type StableMatching struct{}

// Name implements Solver.
func (StableMatching) Name() string { return "stable-matching" }

// Solve implements Solver.  Deterministic; the RNG is unused.
func (StableMatching) Solve(p *Problem, _ *stats.RNG) ([]int, error) {
	nW := p.In.NumWorkers()
	capW := p.CapacityW()
	capT := p.CapacityT()
	util, qual := p.Weights(WorkerWeight), p.Weights(QualityWeight)

	// Worker preference lists: own edges by descending worker utility.
	prefs := make([][]int, nW)
	for w := 0; w < nW; w++ {
		lo, hi := p.AdjW(w)
		list := make([]int, hi-lo)
		for i := range list {
			list[i] = lo + i
		}
		sort.Slice(list, func(a, b int) bool {
			ba, bb := util[list[a]], util[list[b]]
			if ba != bb {
				return ba > bb
			}
			return list[a] < list[b]
		})
		prefs[w] = list
	}

	// Each task holds its current proposals in a min-heap by quality, so
	// the marginal (worst) held worker is evictable in O(log k).
	held := make([]qualHeap, p.In.NumTasks())
	next := make([]int, nW)    // next preference index per worker
	holding := make([]int, nW) // how many tasks each worker currently holds

	// Queue of workers that still want to propose.
	queue := make([]int, 0, nW)
	for w := 0; w < nW; w++ {
		if capW[w] > 0 && len(prefs[w]) > 0 {
			queue = append(queue, w)
		}
	}
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for holding[w] < capW[w] && next[w] < len(prefs[w]) {
			ei := prefs[w][next[w]]
			next[w]++
			t, q := p.T[ei], qual[ei]
			if capT[t] == 0 {
				continue
			}
			if len(held[t]) < capT[t] {
				heap.Push(&held[t], qualEntry{edge: ei, q: q})
				holding[w]++
				continue
			}
			worst := held[t][0]
			if q > worst.q || (q == worst.q && ei < worst.edge) {
				heap.Pop(&held[t])
				heap.Push(&held[t], qualEntry{edge: ei, q: q})
				holding[w]++
				evicted := int(p.W[worst.edge])
				holding[evicted]--
				if next[evicted] < len(prefs[evicted]) {
					queue = append(queue, evicted)
				}
			}
		}
	}

	var sel []int
	for t := range held {
		for _, entry := range held[t] {
			sel = append(sel, entry.edge)
		}
	}
	sort.Ints(sel)
	return sel, nil
}

// BlockingPairs counts the edges that destabilise sel: pairs (w, t) not in
// the assignment where the worker would rather have t than its worst held
// task (or has spare capacity) AND the task would rather have w than its
// worst held worker (or has a spare slot).  A stable assignment has zero;
// efficiency-maximising assignments usually do not — the gap is the
// stability price quantified in X-Abl5.
func BlockingPairs(p *Problem, sel []int) int {
	inSel := make(map[int]bool, len(sel))
	capW := p.CapacityW()
	capT := p.CapacityT()
	// Worst held value per worker (by B) and per task (by Q).
	const inf = 1e18
	worstB := make([]float64, p.In.NumWorkers())
	worstQ := make([]float64, p.In.NumTasks())
	for i := range worstB {
		worstB[i] = inf
	}
	for i := range worstQ {
		worstQ[i] = inf
	}
	util, qual := p.Weights(WorkerWeight), p.Weights(QualityWeight)
	for _, ei := range sel {
		inSel[ei] = true
		w, t := p.W[ei], p.T[ei]
		capW[w]--
		capT[t]--
		if util[ei] < worstB[w] {
			worstB[w] = util[ei]
		}
		if qual[ei] < worstQ[t] {
			worstQ[t] = qual[ei]
		}
	}
	blocking := 0
	for ei := range p.M {
		if inSel[ei] {
			continue
		}
		w, t := p.W[ei], p.T[ei]
		workerWants := capW[w] > 0 || util[ei] > worstB[w]
		taskWants := capT[t] > 0 || qual[ei] > worstQ[t]
		// A worker with zero capacity can never participate in a blocking
		// pair, spare "capacity" notwithstanding.
		if p.In.Workers[w].Capacity == 0 || p.In.Tasks[t].Replication == 0 {
			continue
		}
		if workerWants && taskWants {
			blocking++
		}
	}
	return blocking
}

// qualEntry is one held proposal.
type qualEntry struct {
	edge int
	q    float64
}

// qualHeap is a min-heap by quality (ties: higher edge index is worse, so
// eviction order is deterministic).
type qualHeap []qualEntry

func (h qualHeap) Len() int { return len(h) }
func (h qualHeap) Less(i, j int) bool {
	if h[i].q != h[j].q {
		return h[i].q < h[j].q
	}
	return h[i].edge > h[j].edge
}
func (h qualHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *qualHeap) Push(x interface{}) { *h = append(*h, x.(qualEntry)) }
func (h *qualHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
