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
//     to pin one workspace across calls, which is what the allocation
//     regression test measures.  The platform service does not: it
//     resolves solvers through ByName, so its rounds borrow from the pool.
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
	scan       greedyScan    // greedy's chunked key, count and scatter passes
	batch      []greedyEntry // greedy's survivors awaiting one sort
	batchKeys  []uint64      // their keys, and the sort's key scratch
	sel        []int         // selection under construction
	ints       []int         // arrival orders / int edge orders
	edgeWt     []float64     // the weight column of a kind other than MutualWeight

	// Local-search state.
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

// grow returns a length-n slice backed by buf when it is large enough, a
// fresh allocation otherwise.  Contents are unspecified; callers that need
// zeroed memory clear explicitly (growBoolZero does it for them).  A fresh
// allocation has capacity withHeadroom(n), so a market that grows a little
// past its previous maximum does not reallocate its arenas.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n, withHeadroom(n))
}

// withHeadroom is the capacity grow allocates for n: 1/8 more.
func withHeadroom(n int) int { return n + n/8 }

func growBoolZero(buf []bool, n int) []bool {
	if cap(buf) >= n {
		buf = buf[:n]
		clear(buf)
		return buf
	}
	return make([]bool, n, withHeadroom(n))
}

// capacityWInto fills ws.capW with the workers' capacities and returns it.
func (p *Problem) capacityWInto(ws *Workspace) []int {
	ws.capW = grow(ws.capW, p.In.NumWorkers())
	for i := range p.In.Workers {
		ws.capW[i] = p.In.Workers[i].Capacity
	}
	return ws.capW
}

// capacityTInto fills ws.capT with the tasks' replication limits and
// returns it.
func (p *Problem) capacityTInto(ws *Workspace) []int {
	ws.capT = grow(ws.capT, p.In.NumTasks())
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
