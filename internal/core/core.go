// Package core implements the paper's primary contribution: mutual-benefit
// aware task assignment in a bipartite labor market.
//
// A Problem couples a market.Instance with a benefit.Model and materialises
// the eligible worker-task edges (the bipartite structure).  Solvers consume
// a Problem and return a feasible assignment — a subset of edge indices that
// respects every worker's capacity and every task's replication limit.
// The package ships:
//
//   - Exact: the polynomial-time optimum of the linear objective (MBA-L) via
//     a min-cost max-flow reduction;
//   - Greedy / LocalSearch: fast approximations with a ½ guarantee from the
//     matroid-intersection structure;
//   - SubmodularGreedy: the lazy marginal-gain greedy for the
//     diminishing-returns objective (MBA-S) built on the majority-vote
//     quality oracle;
//   - OnlineGreedy / OnlineRanking / OnlineTwoPhase: irrevocable assignment
//     under random-order worker arrival (MBA-ON);
//   - the baselines the paper's family compares against: quality-only,
//     worker-only, random and round-robin assignment.
//
// All solvers validate nothing at runtime beyond their own needs; use
// Problem.Feasible to check a returned assignment and Problem.Evaluate to
// score it.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/benefit"
	"repro/internal/bipartite"
	"repro/internal/market"
	"repro/internal/stats"
)

// WeightKind selects which per-edge value an algorithm optimises.  The
// baselines differ from the mutual-benefit algorithms only in this choice.
type WeightKind int

const (
	// MutualWeight optimises the combined benefit µ — the paper's proposal.
	MutualWeight WeightKind = iota
	// QualityWeight optimises the requester side alone — what prior
	// assignment work does.
	QualityWeight
	// WorkerWeight optimises the worker side alone.
	WorkerWeight
)

// String names the weight kind for reports.
func (k WeightKind) String() string {
	switch k {
	case MutualWeight:
		return "mutual"
	case QualityWeight:
		return "quality"
	case WorkerWeight:
		return "worker"
	default:
		return fmt.Sprintf("weight(%d)", int(k))
	}
}

// Problem is one assignment round: an instance, a benefit model, and the
// eligible worker-task edges, stored as columns.
//
// Edge e pairs worker W[e] with task T[e] at mutual benefit M[e].  Edges
// are worker-major, each worker's tasks ascending, so worker w's edges are
// the index range AdjW(w) and no worker adjacency is stored.  Requester
// quality and worker utility are not stored either: Quality(e) and
// Utility(e) derive them from the model with the same calls the build
// scores M from, so they are bit-identical to what it combined.  The task
// adjacency is built on the first AdjT call of each build; greedy, random
// and the feasibility gate never ask for it.
type Problem struct {
	In    *market.Instance
	Model *benefit.Model

	W, T []int32   // worker and task index of each edge
	M    []float64 // mutual benefit of each edge

	offW []int32 // worker w's edges are [offW[w], offW[w+1]); len NumWorkers+1
	offT []int32 // task t's edges are adjT[offT[t]:offT[t+1]]; len NumTasks+1

	adjT     []int32 // edge indices by task, ascending; built by adjTOnce
	adjTOnce sync.Once

	// bs retains the build scratch, and the spare columns a refresh writes
	// into, so RebuildProblem can rebuild this Problem for the next round
	// without reallocating it.
	bs buildScratch
}

// buildScratch is the per-build scratch: category buckets, degree
// counters, chunk boundaries, all fully rewritten by every build, plus the
// state the refresh path carries from one build to the next.
type buildScratch struct {
	catOff, catTasks, catCur []int32
	workersPerCat            []int32
	bounds                   []int          // chunk k fills workers [bounds[k], bounds[k+1])
	src                      *refreshSource // the refresh being built, or nil
	taskCur                  []int32        // per task: the AdjT build's cursor

	// built is set once the columns and offsets are a complete build of
	// In: the precondition for refreshing from them.
	built bool
	// refreshed records whether the last build copied surviving rows
	// instead of scoring every edge.
	refreshed bool
	// gen identifies the last complete build, unique across every
	// Problem (0 while none is complete, and for the problems
	// NewProblemSerial and FilterProblem make).  from is the gen of the
	// build RebuildProblem rebuilt this one from (0 after NewProblem).
	// After a refresh, prevWorker and prevTask copy the Delta's
	// correspondence it copied rows under.  Together they let a solver
	// that kept state for build from carry it over.
	gen, from            uint64
	prevWorker, prevTask []int32
	// spareT, spareM and spareOffW are the columns of the build before
	// last.  A refresh reads the previous build's T and M while it writes
	// the next one, so those two columns ping-pong; W is never read back
	// and is rewritten in place.
	spareT    []int32
	spareM    []float64
	spareOffW []int32
	taskAt    []int32 // previous task index → current index, or -1
	arrFrom   []int32 // per category: where arriving tasks start in catTasks
}

// buildGens hands out build generations.
var buildGens atomic.Uint64

// parallelBuildCutoff is the edge count below which NewProblem stays
// serial: goroutine fan-out costs more than it saves on small markets.
const parallelBuildCutoff = 1 << 12

// NewProblem builds the Problem for an instance under params.  Edges are
// enumerated in deterministic (worker, task) order: for each worker, the
// tasks of each of its specialties in task-id order.
//
// Construction is a counted two-pass build into preallocated flat arrays,
// with edge scoring fanned out across GOMAXPROCS goroutines over disjoint
// worker ranges; the result is byte-identical to NewProblemSerial, the
// retained single-threaded reference.
func NewProblem(in *market.Instance, params benefit.Params) (*Problem, error) {
	return newProblemProcs(in, params, 0)
}

// newProblemProcs is NewProblem with an explicit scoring fan-out, so tests
// can force the parallel path regardless of GOMAXPROCS and market size.
// procs <= 0 selects GOMAXPROCS with the small-market serial cutoff.
func newProblemProcs(in *market.Instance, params benefit.Params, procs int) (*Problem, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	model, err := benefit.NewModel(in, params)
	if err != nil {
		return nil, err
	}
	p := &Problem{In: in, Model: model}
	p.build(procs, nil)
	return p, nil
}

// build materialises the edge columns and worker offsets in two counted
// passes: exact per-node degrees first (so every array is allocated once
// at final size), then scoring into the precomputed disjoint ranges.  With
// a non-nil src the second pass is a refresh: a surviving worker's row is
// copied from its previous row, and only its edges to arriving tasks are
// scored (see RebuildProblem).  The second pass runs in worker chunks on
// forChunks, so a panic in any chunk re-raises here, on the caller's
// goroutine, with the Problem left unbuilt.
func (p *Problem) build(procs int, src *refreshSource) {
	in := p.In
	nW, nT, nC := in.NumWorkers(), in.NumTasks(), in.NumCategories
	p.bs.built, p.bs.gen = false, 0
	p.adjTOnce = sync.Once{} // the next AdjT call rebuilds it

	// Every array below is drawn through a reuse-aware grow helper against
	// the Problem's previous builds (a no-op first time), so RebuildProblem
	// reruns this code with (almost) zero fresh allocation when the market
	// shape is stable round over round.

	// CSR bucket of tasks by category; task ids ascend within each bucket
	// because tasks are visited in id order.
	p.bs.catOff = grow(p.bs.catOff, nC+1)
	catOff := p.bs.catOff
	clear(catOff)
	for j := range in.Tasks {
		catOff[in.Tasks[j].Category+1]++
	}
	for c := 0; c < nC; c++ {
		catOff[c+1] += catOff[c]
	}
	p.bs.catTasks = grow(p.bs.catTasks, nT)
	catTasks := p.bs.catTasks
	p.bs.catCur = grow(p.bs.catCur, nC)
	catCur := p.bs.catCur
	copy(catCur, catOff[:nC])
	for j := range in.Tasks {
		c := in.Tasks[j].Category
		catTasks[catCur[c]] = int32(j)
		catCur[c]++
	}
	if src != nil {
		// Arriving tasks hold the largest indices, so they are the tail of
		// each category's bucket.
		p.bs.arrFrom = grow(p.bs.arrFrom, nC)
		copy(p.bs.arrFrom, catOff[1:])
		for j := src.firstArrT; j < nT; j++ {
			p.bs.arrFrom[in.Tasks[j].Category]--
		}
	}

	// Pass 1: exact degrees.  A worker's edge count is the sum of its
	// specialty bucket sizes; a task's degree is the number of workers
	// specialised in its category.
	offW, ts, ms := p.offW, p.T, p.M
	if src != nil {
		// The previous build is src's to read; write into the spare
		// columns and keep the previous ones as the next refresh's spares.
		offW, ts, ms = p.bs.spareOffW, p.bs.spareT, p.bs.spareM
		p.bs.spareOffW, p.bs.spareT, p.bs.spareM = p.offW, p.T, p.M
	}
	offW = grow(offW, nW+1)
	offW[0] = 0
	p.bs.workersPerCat = grow(p.bs.workersPerCat, nC)
	workersPerCat := p.bs.workersPerCat
	clear(workersPerCat)
	for wi := range in.Workers {
		deg := int32(0)
		for _, c := range in.Workers[wi].Specialties {
			deg += catOff[c+1] - catOff[c]
			workersPerCat[c]++
		}
		offW[wi+1] = offW[wi] + deg
	}
	total := int(offW[nW])
	offT := grow(p.offT, nT+1)
	offT[0] = 0
	for j := range in.Tasks {
		offT[j+1] = offT[j] + workersPerCat[in.Tasks[j].Category]
	}

	p.W = grow(p.W, total)
	p.T = grow(ts, total)
	p.M = grow(ms, total)
	p.offW, p.offT = offW, offT

	// Chunks split workers, so there are at most nW of them.
	procs = min(fanOut(procs, total, parallelBuildCutoff), max(1, nW))

	// Chunk boundaries at edge-count quantiles, so dense workers do not
	// pile into one goroutine.
	bounds := grow(p.bs.bounds, procs+1)
	p.bs.bounds = bounds
	bounds[0], bounds[procs] = 0, nW
	for k := 1; k < procs; k++ {
		target := int32(int64(total) * int64(k) / int64(procs))
		bounds[k] = sort.Search(nW, func(i int) bool { return offW[i] >= target })
	}

	// Pass 2: fill rows.  Each chunk owns a contiguous worker range and
	// therefore a disjoint range of every column, so the chunks are
	// race-free and the output independent of scheduling.
	p.bs.src = src
	forChunks(p, procs, (*Problem).fillWorkers)
	p.bs.src = nil
	p.bs.built, p.bs.refreshed = true, src != nil
	p.bs.gen = buildGens.Add(1)
}

// fillWorkers writes the rows of chunk k's workers into their precomputed
// column ranges.  A row is scored; on a refresh, a surviving worker's row
// is instead copied from its previous row, and only its edges to arriving
// tasks, which follow, are scored.
func (p *Problem) fillWorkers(k int) {
	nC, src := p.In.NumCategories, p.bs.src
	cur := make([]int32, nC)
	end := make([]int32, nC)
	for wi := p.bs.bounds[k]; wi < p.bs.bounds[k+1]; wi++ {
		w := &p.In.Workers[wi]
		row, copied, from := p.offW[wi], int32(0), p.bs.catOff
		if src != nil {
			if pw := src.prevWorker[wi]; pw >= 0 {
				lo, hi := src.offW[pw], src.offW[pw+1]
				copied = p.copyRow(row, src.t[lo:hi], src.m[lo:hi], src.taskAt)
				from = p.bs.arrFrom
			}
		}
		p.scoreRow(row+copied, w, from, cur, end)
		wcol := p.W[row:p.offW[wi+1]]
		for i := range wcol {
			wcol[i] = int32(wi)
		}
	}
}

// copyRow copies the edges of a surviving worker's previous row (task
// column t, benefit column m) whose task survived, remapped to current
// indices, to T[pos:] and M[pos:]; it returns how many it copied.  Scores
// are unchanged: the refresh only runs when both endpoints' scoring
// inputs, the params and MaxPayment are.
func (p *Problem) copyRow(pos int32, t []int32, m []float64, taskAt []int32) int32 {
	ts, ms := p.T[pos:], p.M[pos:]
	k := 0
	for i, pt := range t {
		if tj := taskAt[pt]; tj >= 0 {
			ts[k], ms[k] = tj, m[i]
			k++
		}
	}
	return int32(k)
}

// scoreRow scores worker w's edges to the tasks of catTasks[from[c]:
// catOff[c+1]] for each specialty c, in ascending task order, into the
// T and M columns from pos.  That order is the k-way merge of the
// specialty buckets — disjoint ascending lists — replacing the seed's
// per-worker union-then-sort.Ints.  cur and end are per-specialty merge
// scratch.
func (p *Problem) scoreRow(pos int32, w *market.Worker, from, cur, end []int32) {
	catOff, catTasks := p.bs.catOff, p.bs.catTasks
	specs := w.Specialties
	if len(specs) == 1 {
		c := specs[0]
		for k, tj := range catTasks[from[c]:catOff[c+1]] {
			p.scoreEdge(pos+int32(k), w, tj)
		}
		return
	}
	n := int32(0)
	for s, c := range specs {
		cur[s], end[s] = from[c], catOff[c+1]
		n += end[s] - cur[s]
	}
	for k := int32(0); k < n; k++ {
		best, bestT := -1, int32(0)
		for s := range specs {
			if cur[s] < end[s] {
				if tj := catTasks[cur[s]]; best == -1 || tj < bestT {
					best, bestT = s, tj
				}
			}
		}
		cur[best]++
		p.scoreEdge(pos+k, w, bestT)
	}
}

// scoreEdge fills edge pos with task tj and the mutual benefit of (w, tj).
func (p *Problem) scoreEdge(pos int32, w *market.Worker, tj int32) {
	t := &p.In.Tasks[tj]
	p.T[pos] = tj
	p.M[pos] = p.Model.Combine(p.Model.Quality(w, t), p.Model.WorkerUtility(w, t))
}

// NumEdges returns the number of eligible edges.
func (p *Problem) NumEdges() int { return len(p.M) }

// Quality returns edge e's requester-side quality.
func (p *Problem) Quality(e int) float64 {
	return p.Model.Quality(&p.In.Workers[p.W[e]], &p.In.Tasks[p.T[e]])
}

// Utility returns edge e's worker-side utility.
func (p *Problem) Utility(e int) float64 {
	return p.Model.WorkerUtility(&p.In.Workers[p.W[e]], &p.In.Tasks[p.T[e]])
}

// Weights returns every edge's value under kind, indexed by edge.  For
// MutualWeight it is M itself (do not mutate); the other kinds are
// computed into a fresh slice.
func (p *Problem) Weights(kind WeightKind) []float64 {
	if kind == MutualWeight {
		return p.M
	}
	return p.fillWeights(kind, nil)
}

// weightsInto is Weights computing the other kinds into *buf, grown as
// needed, so a solver fills its column once when its solve starts and
// reuses the buffer across solves.
func (p *Problem) weightsInto(kind WeightKind, buf *[]float64) []float64 {
	if kind == MutualWeight {
		return p.M
	}
	*buf = p.fillWeights(kind, *buf)
	return *buf
}

// fillWeights computes every edge's quality or utility into buf, grown to
// the edge count.
func (p *Problem) fillWeights(kind WeightKind, buf []float64) []float64 {
	buf = grow(buf, p.NumEdges())
	switch kind {
	case QualityWeight:
		for e := range buf {
			buf[e] = p.Quality(e)
		}
	case WorkerWeight:
		for e := range buf {
			buf[e] = p.Utility(e)
		}
	default:
		panic("core: unknown weight kind")
	}
	return buf
}

// AdjW returns the range [lo, hi) of edge indices incident to worker w.
func (p *Problem) AdjW(w int) (lo, hi int) { return int(p.offW[w]), int(p.offW[w+1]) }

// AdjT returns the edge indices incident to task t in ascending order (do
// not mutate).  The first call after a build lays the whole adjacency out
// in one counting pass over T; it is safe for concurrent use.
func (p *Problem) AdjT(t int) []int32 {
	p.adjTOnce.Do(p.buildAdjT)
	return p.adjT[p.offT[t]:p.offT[t+1]]
}

// buildAdjT distributes the edges to their tasks' offsets in index order,
// so each task lists its edges ascending, which is worker order.
func (p *Problem) buildAdjT() {
	nT := len(p.offT) - 1
	p.adjT = grow(p.adjT, p.NumEdges())
	p.bs.taskCur = grow(p.bs.taskCur, nT)
	cur := p.bs.taskCur
	copy(cur, p.offT[:nT])
	for e, t := range p.T {
		p.adjT[cur[t]] = int32(e)
		cur[t]++
	}
}

// CapacityW returns a fresh slice of worker capacities.
func (p *Problem) CapacityW() []int {
	caps := make([]int, p.In.NumWorkers())
	for i := range p.In.Workers {
		caps[i] = p.In.Workers[i].Capacity
	}
	return caps
}

// CapacityT returns a fresh slice of task replication limits.
func (p *Problem) CapacityT() []int {
	caps := make([]int, p.In.NumTasks())
	for j := range p.In.Tasks {
		caps[j] = p.In.Tasks[j].Replication
	}
	return caps
}

// GraphFor builds the weighted bipartite graph of the problem under kind
// (left = workers, right = tasks), preserving edge indices, for use with the
// exact flow solver.  Each call allocates a fresh graph; the exact solver's
// hot path goes through graphForInto, which rebuilds the workspace's
// retained graph arena instead.
func (p *Problem) GraphFor(kind WeightKind) *bipartite.Graph {
	return p.fillGraph(bipartite.NewGraph(p.In.NumWorkers(), p.In.NumTasks()), p.Weights(kind))
}

// graphForInto is GraphFor rebuilding into ws's retained graph: after the
// first solve through a pinned (or pooled) workspace, laying out the flow
// reduction's input allocates nothing.
func (p *Problem) graphForInto(kind WeightKind, ws *Workspace) *bipartite.Graph {
	if ws.flowG == nil {
		ws.flowG = bipartite.NewGraph(p.In.NumWorkers(), p.In.NumTasks())
	} else {
		ws.flowG.Reset(p.In.NumWorkers(), p.In.NumTasks())
	}
	return p.fillGraph(ws.flowG, p.weightsInto(kind, &ws.edgeWt))
}

// fillGraph appends every eligible edge to g at its weight wt[e],
// preserving edge indices.
func (p *Problem) fillGraph(g *bipartite.Graph, wt []float64) *bipartite.Graph {
	for e, v := range wt {
		g.AddEdge(int(p.W[e]), int(p.T[e]), v)
	}
	return g
}

// Feasible verifies that sel (edge indices) is a valid assignment: indices
// in range and distinct, no duplicate worker-task pair, and both sides'
// degree constraints respected.  It returns nil or a descriptive error for
// the first violation.
//
// Its scratch is sized by sel and the market sides, never by the edge
// count, and it runs in O(len(sel) + workers + tasks).
func (p *Problem) Feasible(sel []int) error {
	nW, nT, nE := p.In.NumWorkers(), p.In.NumTasks(), p.NumEdges()
	for _, ei := range sel {
		if ei < 0 || ei >= nE {
			return fmt.Errorf("core: edge index %d out of range", ei)
		}
	}
	scratch := make([]int32, nW+1+nT+len(sel))
	end, last, byW := scratch[:nW+1], scratch[nW+1:nW+1+nT], scratch[nW+1+nT:]

	// Distinctness: bucket sel by worker, then walk each bucket noting
	// the last selected edge (plus one) at each task.  Meeting a task this
	// worker already took is a repeated index or a repeated pair.
	for _, ei := range sel {
		end[p.W[ei]+1]++
	}
	for w := 0; w < nW; w++ {
		end[w+1] += end[w]
	}
	for _, ei := range sel { // end[w] advances to the end of w's bucket
		w := p.W[ei]
		byW[end[w]] = int32(ei)
		end[w]++
	}
	start := int32(0)
	for w := 0; w < nW; w++ {
		for _, ei := range byW[start:end[w]] {
			t := p.T[ei]
			if prev := last[t] - 1; prev >= 0 && int(p.W[prev]) == w {
				if prev == ei {
					return fmt.Errorf("core: edge %d selected twice", ei)
				}
				return fmt.Errorf("core: edges %d and %d both pair worker %d with task %d", prev, ei, w, t)
			}
			last[t] = ei + 1
		}
		start = end[w]
	}

	degW, degT := end[:nW], last
	clear(degW)
	clear(degT)
	for _, ei := range sel {
		w, t := p.W[ei], p.T[ei]
		degW[w]++
		degT[t]++
		if c := p.In.Workers[w].Capacity; int(degW[w]) > c {
			return fmt.Errorf("core: worker %d over capacity %d", w, c)
		}
		if r := p.In.Tasks[t].Replication; int(degT[t]) > r {
			return fmt.Errorf("core: task %d over replication %d", t, r)
		}
	}
	return nil
}

// Solver is the interface every assignment algorithm implements.  Solve
// returns edge indices of p.  Deterministic solvers ignore r;
// randomised and online ones draw arrival orders and tie-breaks from it, so
// the caller controls reproducibility.
type Solver interface {
	Name() string
	Solve(p *Problem, r *stats.RNG) ([]int, error)
}
