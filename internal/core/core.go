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

// EdgeInfo is one eligible worker-task pair with its three benefit values
// precomputed.  Precomputing keeps the hot loops of every solver free of
// model calls.
type EdgeInfo struct {
	W, T    int     // worker and task indices in the instance
	Q, B, M float64 // quality, worker utility, mutual benefit
}

// Weight returns the edge's value under kind.
func (e *EdgeInfo) Weight(kind WeightKind) float64 {
	switch kind {
	case MutualWeight:
		return e.M
	case QualityWeight:
		return e.Q
	case WorkerWeight:
		return e.B
	default:
		panic("core: unknown weight kind")
	}
}

// Problem is one assignment round: an instance, a benefit model, and the
// materialised eligible edges.
//
// Adjacency is stored in CSR form: one flat backing slice per side plus an
// offsets array, so building a problem performs a fixed number of
// allocations regardless of market shape and the AdjW/AdjT accessors return
// subslices of contiguous memory.
type Problem struct {
	In    *market.Instance
	Model *benefit.Model
	Edges []EdgeInfo

	adjW []int32 // edge indices incident to worker w at [offW[w], offW[w+1])
	offW []int32 // len NumWorkers+1
	adjT []int32 // edge indices incident to task t at [offT[t], offT[t+1])
	offT []int32 // len NumTasks+1

	// bs retains the build scratch, and the spare arena a refresh writes
	// into, so RebuildProblem can rebuild this Problem for the next round
	// without reallocating it.
	bs buildScratch
}

// buildScratch is the per-build scratch: category buckets, degree
// counters, chunk boundaries and per-chunk category cursors, all fully
// rewritten by every build, plus the state the refresh path carries from
// one build to the next.
type buildScratch struct {
	catOff, catTasks, catCur []int32
	workersPerCat            []int32
	bounds                   []int          // chunk k fills workers [bounds[k], bounds[k+1])
	seen                     []int32        // per chunk and category; see build
	src                      *refreshSource // the refresh being built, or nil

	// built is set once Edges and the CSR arrays are a complete build of
	// In: the precondition for refreshing from them.
	built bool
	// refreshed records whether the last build copied surviving rows
	// instead of scoring every edge.
	refreshed bool
	// spareEdges and spareOffW are the arrays of the build before last.  A
	// refresh reads the previous build while it writes the next one, so
	// the two arenas ping-pong.
	spareEdges []EdgeInfo
	spareOffW  []int32
	taskAt     []int32 // previous task index → current index, or -1
	arrFrom    []int32 // per category: where arriving tasks start in catTasks
}

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

// build materialises Edges and the CSR adjacency in two counted passes:
// exact per-node degrees first (so every array is allocated once at final
// size), then scoring into the precomputed disjoint ranges.  With a
// non-nil src the second pass is a refresh: a surviving worker's row is
// copied from its previous row, and only its edges to arriving tasks are
// scored (see RebuildProblem).  The second pass runs in worker chunks on
// forChunks, so a panic in any chunk re-raises here, on the caller's
// goroutine, with the Problem left unbuilt.
func (p *Problem) build(procs int, src *refreshSource) {
	in := p.In
	nW, nT, nC := in.NumWorkers(), in.NumTasks(), in.NumCategories
	p.bs.built = false

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
	offW, edges := p.offW, p.Edges
	if src != nil {
		// The previous build is src's to read; write into the spare arena
		// and keep the previous one as the next refresh's spare.
		offW, edges = p.bs.spareOffW, p.bs.spareEdges
		p.bs.spareOffW, p.bs.spareEdges = p.offW, p.Edges
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

	p.Edges = grow(edges, total)
	p.adjW = grow(p.adjW, total)
	p.adjT = grow(p.adjT, total)
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

	// AdjT lists a task's edges in worker order, and each worker
	// specialised in the task's category contributes exactly one.  So an
	// edge's slot in its task's list is the number of earlier workers
	// specialised in that category.  seen[k*nC+c] starts chunk k's count
	// at the workers of the chunks before it.
	seen := grow(p.bs.seen, procs*nC)
	p.bs.seen = seen
	clear(workersPerCat)
	for k := 0; k < procs; k++ {
		copy(seen[k*nC:(k+1)*nC], workersPerCat)
		for wi := bounds[k]; wi < bounds[k+1]; wi++ {
			for _, c := range in.Workers[wi].Specialties {
				workersPerCat[c]++
			}
		}
	}

	// Pass 2: fill rows.  Each chunk owns a contiguous worker range and
	// therefore a disjoint range of Edges/adjW and disjoint adjT slots, so
	// the chunks are race-free and the output independent of scheduling.
	p.bs.src = src
	forChunks(p, procs, (*Problem).fillWorkers)
	p.bs.src = nil
	p.bs.built, p.bs.refreshed = true, src != nil
}

// fillWorkers writes the rows of chunk k's workers into their precomputed
// Edges/adjW ranges and slots each edge into its task's adjacency.  seen
// is the chunk's per-category count of earlier workers, advanced past
// each worker.  A row is scored; on a refresh, a surviving worker's row
// is instead copied from its previous row, and only its edges to arriving
// tasks, which follow, are scored.
//
// While a row is written, each edge's adjT slot is noted in at, and a
// tight loop of its own then stores the row's edges there.  Storing them
// in the scoring loop instead interleaves one cache-missing store per edge
// with the row's own writes, which stalls the loop once adjT outgrows the
// cache.
func (p *Problem) fillWorkers(k int) {
	nC, src := p.In.NumCategories, p.bs.src
	seen := p.bs.seen[k*nC : (k+1)*nC]
	cur := make([]int32, nC)
	end := make([]int32, nC)
	at := make([]int32, p.In.NumTasks()) // a row has at most one edge per task
	for wi := p.bs.bounds[k]; wi < p.bs.bounds[k+1]; wi++ {
		w := &p.In.Workers[wi]
		row, copied, from := p.offW[wi], int32(0), p.bs.catOff
		if src != nil {
			if pw := src.prevWorker[wi]; pw >= 0 {
				copied = p.copyRow(row, wi, src.edges[src.offW[pw]:src.offW[pw+1]], src.taskAt, seen, at)
				from = p.bs.arrFrom
			}
		}
		p.scoreRow(row+copied, wi, w, from, seen, cur, end, at[copied:])
		for i, slot := range at[:p.offW[wi+1]-row] {
			p.adjT[slot] = row + int32(i)
		}
		for _, c := range w.Specialties {
			seen[c]++
		}
	}
}

// copyRow copies the edges of row, a surviving worker's previous row,
// whose task survived, remapped to current indices, to Edges[pos:], noting
// each one's adjT slot in at; it returns how many it copied.  Scores are
// unchanged: the refresh only runs when both endpoints' scoring inputs,
// the params and MaxPayment are.
func (p *Problem) copyRow(pos int32, wi int, row []EdgeInfo, taskAt, seen, at []int32) int32 {
	k := int32(0)
	for i := range row {
		tj := taskAt[row[i].T]
		if tj < 0 {
			continue
		}
		e := &p.Edges[pos+k]
		*e = row[i]
		e.W, e.T = wi, int(tj)
		p.adjW[pos+k] = pos + k
		at[k] = p.offT[tj] + seen[p.In.Tasks[tj].Category]
		k++
	}
	return k
}

// scoreRow scores worker wi's edges to the tasks of catTasks[from[c]:
// catOff[c+1]] for each specialty c, in ascending task order, into
// Edges[pos:], noting each one's adjT slot in at.  That order is the
// k-way merge of the specialty buckets — disjoint ascending lists —
// replacing the seed's per-worker union-then-sort.Ints.  cur and end are
// per-specialty merge scratch.
func (p *Problem) scoreRow(pos int32, wi int, w *market.Worker, from, seen, cur, end, at []int32) {
	catOff, catTasks := p.bs.catOff, p.bs.catTasks
	specs := w.Specialties
	if len(specs) == 1 {
		c := specs[0]
		slot := seen[c]
		for k, tj := range catTasks[from[c]:catOff[c+1]] {
			p.scoreEdge(pos+int32(k), wi, tj, w)
			at[k] = p.offT[tj] + slot
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
		p.scoreEdge(pos+k, wi, bestT, w)
		at[k] = p.offT[bestT] + seen[specs[best]]
	}
}

// scoreEdge fills Edges[pos] with the scored pair (wi, tj).  Edge index ==
// position in the worker-major enumeration, so adjW is the identity there.
func (p *Problem) scoreEdge(pos int32, wi int, tj int32, w *market.Worker) {
	t := &p.In.Tasks[tj]
	e := &p.Edges[pos]
	e.W, e.T = wi, int(tj)
	e.Q = p.Model.Quality(w, t)
	e.B = p.Model.WorkerUtility(w, t)
	e.M = p.Model.Combine(e.Q, e.B)
	p.adjW[pos] = pos
}

// setAdjacency flattens per-node adjacency lists into the CSR arrays (used
// by the serial reference builder).
func (p *Problem) setAdjacency(adjW, adjT [][]int32) {
	n := len(p.Edges)
	p.offW = make([]int32, len(adjW)+1)
	p.adjW = make([]int32, 0, n)
	for w, l := range adjW {
		p.adjW = append(p.adjW, l...)
		p.offW[w+1] = int32(len(p.adjW))
	}
	p.offT = make([]int32, len(adjT)+1)
	p.adjT = make([]int32, 0, n)
	for t, l := range adjT {
		p.adjT = append(p.adjT, l...)
		p.offT[t+1] = int32(len(p.adjT))
	}
}

// AdjW returns the edge indices incident to worker w (do not mutate).
func (p *Problem) AdjW(w int) []int32 { return p.adjW[p.offW[w]:p.offW[w+1]] }

// AdjT returns the edge indices incident to task t (do not mutate).
func (p *Problem) AdjT(t int) []int32 { return p.adjT[p.offT[t]:p.offT[t+1]] }

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
	return p.fillGraph(bipartite.NewGraph(p.In.NumWorkers(), p.In.NumTasks()), kind)
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
	return p.fillGraph(ws.flowG, kind)
}

// fillGraph appends every eligible edge to g under kind, preserving edge
// indices.
func (p *Problem) fillGraph(g *bipartite.Graph, kind WeightKind) *bipartite.Graph {
	for i := range p.Edges {
		e := &p.Edges[i]
		g.AddEdge(e.W, e.T, e.Weight(kind))
	}
	return g
}

// Feasible verifies that sel (edge indices into p.Edges) is a valid
// assignment: indices in range and distinct, no duplicate worker-task pair,
// and both sides' degree constraints respected.  It returns nil or a
// descriptive error for the first violation.
func (p *Problem) Feasible(sel []int) error {
	// Flat slices, not maps: Feasible runs on every solver result and the
	// three maps the seed allocated dominated its cost on large markets.
	seen := make([]bool, len(p.Edges))
	degW := make([]int, p.In.NumWorkers())
	degT := make([]int, p.In.NumTasks())
	for _, ei := range sel {
		if ei < 0 || ei >= len(p.Edges) {
			return fmt.Errorf("core: edge index %d out of range", ei)
		}
		if seen[ei] {
			return fmt.Errorf("core: edge %d selected twice", ei)
		}
		seen[ei] = true
		e := &p.Edges[ei]
		degW[e.W]++
		degT[e.T]++
		if degW[e.W] > p.In.Workers[e.W].Capacity {
			return fmt.Errorf("core: worker %d over capacity %d", e.W, p.In.Workers[e.W].Capacity)
		}
		if degT[e.T] > p.In.Tasks[e.T].Replication {
			return fmt.Errorf("core: task %d over replication %d", e.T, p.In.Tasks[e.T].Replication)
		}
	}
	// Duplicate worker-task pairs can only arise from duplicate edges in
	// Edges, which NewProblem never creates; the distinct-index check above
	// therefore already excludes them.
	return nil
}

// Solver is the interface every assignment algorithm implements.  Solve
// returns edge indices into p.Edges.  Deterministic solvers ignore r;
// randomised and online ones draw arrival orders and tie-breaks from it, so
// the caller controls reproducibility.
type Solver interface {
	Name() string
	Solve(p *Problem, r *stats.RNG) ([]int, error)
}
