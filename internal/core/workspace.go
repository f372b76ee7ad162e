package core

import (
	"sync"

	"repro/internal/bipartite"
)

// Workspace is the reusable scratch memory behind the solvers' hot paths:
// capacity and chosen-flag arrays, edge-order and radix-key buffers, the local
// search's per-pass vertex tables and move lists, and the online solvers'
// arrival orders.  Repeated solves of same-shape problems through one
// workspace allocate (almost) nothing beyond the returned selection.
//
// Two ways to use it:
//
//   - implicit: leave solvers' WS field nil and every Solve call borrows a
//     workspace from a package-wide sync.Pool for its duration — concurrent
//     solves each get their own;
//   - explicit: set the WS field (e.g. Greedy{Kind: MutualWeight, WS: ws})
//     to pin one workspace across calls, which is what the platform service
//     does round over round and what the allocation regression test
//     measures.
//
// A Workspace is not safe for concurrent use; the pool hands each borrower
// a private one.  All buffers are sized lazily and retained at high-water
// mark.
type Workspace struct {
	capW, capT []int
	chosen     []bool
	order      []int32       // edge order under sort
	orderTmp   []int32       // radix ping-pong partner of order
	keys       []uint64      // radix keys (two ping-ponged halves); greedy's per-edge keys
	entries    []greedyEntry // greedy's per-edge bucket scatter
	batch      []greedyEntry // greedy's survivors awaiting one sort
	batchKeys  []uint64      // their keys, and the sort's key scratch
	sel        []int         // selection under construction
	ints       []int         // arrival orders / int edge orders

	// Local-search state.
	edgeWt                 []float64 // frozen per-edge weight, indexed by edge
	minChosenW, minChosenT []int32
	bestAddW, bestAddT     []int32
	touchedW, touchedT     []bool
	moveBufs               [][]lsMove
	moves                  []lsMove
	ls                     lsState // shared read-mostly view for the sweeps

	radixHist  [8][256]uint32 // per-byte key histograms of one radix sort
	moveSorter lsMoveSorter

	// Exact-path state: the retained bipartite graph the flow reduction is
	// rebuilt into, and the matching engine's own scratch arena (network,
	// potentials, Dijkstra labels, heap) — see bipartite.FlowWorkspace.
	flowG  *bipartite.Graph
	flowWS *bipartite.FlowWorkspace
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

var workspacePool = sync.Pool{New: func() any { return &Workspace{} }}

// acquireWorkspace hands the caller a private workspace: the solver's own
// WS when pinned (pooled false), a pooled one otherwise.  The pair is two
// plain values rather than a release closure so the pinned fast path stays
// allocation-free.
func acquireWorkspace(pinned *Workspace) (ws *Workspace, pooled bool) {
	if pinned != nil {
		return pinned, false
	}
	return workspacePool.Get().(*Workspace), true
}

// releaseWorkspace returns a pooled workspace; a pinned one stays with its
// owner.
func releaseWorkspace(ws *Workspace, pooled bool) {
	if pooled {
		workspacePool.Put(ws)
	}
}

// The grow helpers return a length-n slice backed by buf when it is large
// enough, a fresh allocation otherwise.  Contents are unspecified; callers
// that need zeroed memory clear explicitly (growBoolZero does it for them).

func growInts(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

func growI32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n)
}

func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]uint64, n)
}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

func growEdges(buf []EdgeInfo, n int) []EdgeInfo {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]EdgeInfo, n)
}

func growEntries(buf []greedyEntry, n int) []greedyEntry {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]greedyEntry, n)
}

func growBoolZero(buf []bool, n int) []bool {
	if cap(buf) >= n {
		buf = buf[:n]
		clear(buf)
		return buf
	}
	return make([]bool, n)
}

// capacityWInto fills ws.capW with the workers' capacities and returns it.
func (p *Problem) capacityWInto(ws *Workspace) []int {
	ws.capW = growInts(ws.capW, p.In.NumWorkers())
	for i := range p.In.Workers {
		ws.capW[i] = p.In.Workers[i].Capacity
	}
	return ws.capW
}

// capacityTInto fills ws.capT with the tasks' replication limits and
// returns it.
func (p *Problem) capacityTInto(ws *Workspace) []int {
	ws.capT = growInts(ws.capT, p.In.NumTasks())
	for j := range p.In.Tasks {
		ws.capT[j] = p.In.Tasks[j].Replication
	}
	return ws.capT
}

// copySel returns a fresh caller-owned copy of a workspace-backed
// selection (nil for an empty one), so the workspace can be reused or
// returned to the pool without aliasing the result.
func copySel(sel []int) []int {
	if len(sel) == 0 {
		return nil
	}
	out := make([]int, len(sel))
	copy(out, sel)
	return out
}
