package bipartite

import "sync"

// FlowWorkspace is the reusable scratch memory behind the min-cost-flow
// kernel, mirroring core.Workspace: Dijkstra's dist/prevArc/heap arrays,
// the potential vector and — most importantly — a retained FlowNetwork
// arena so repeated b-matching solves rebuild the flow reduction inside the
// previous solve's allocations.
//
// Two ways to use it:
//
//   - implicit: pass a nil workspace to MaxWeightBMatchingWS and the call
//     borrows one from a package-wide sync.Pool for its duration —
//     concurrent solves each get their own;
//   - explicit: allocate one with NewFlowWorkspace and pass it to the WS
//     entry points to pin it across calls, which is what core.Exact does
//     when its own Workspace is pinned round over round.
//
// A FlowWorkspace is not safe for concurrent use; the pool hands each
// borrower a private one.  All buffers are sized lazily and retained at
// high-water mark.
type FlowWorkspace struct {
	// Stop, when non-nil, is polled once per augmentation and makes the
	// min-cost-flow loop return early with whatever partial flow it has
	// pushed so far.  It is the cooperative cancellation hook core.Exact
	// uses to honour context deadlines: the caller that set it must treat
	// the result as invalid once Stop has reported true.  Left nil (the
	// default) the kernel is bit-identical to its uncancellable behaviour.
	Stop func() bool

	// Min-cost-flow scratch (MinCostFlowWS).
	dist    []int64
	prevArc []int32
	pot     []int64
	heapEs  []heapEnt
	heapPos []int32
	// potN is the vertex count of the network the carried potentials in pot
	// were last left feasible for (set by the augmentation loop's epilogue);
	// 0 means no solve has completed yet.  The warm-start path refuses to
	// reuse pot when the new network's size differs.
	potN int

	// Retained network arena for the b-matching reduction, rebuilt in
	// place by RebuildNetwork on every solve.
	net     FlowNetwork
	edgeArc []int32
}

// NewFlowWorkspace returns an empty workspace; buffers grow on first use.
func NewFlowWorkspace() *FlowWorkspace { return &FlowWorkspace{} }

var flowWorkspacePool = sync.Pool{New: func() any { return &FlowWorkspace{} }}

// acquireFlowWorkspace hands the caller a private workspace: the pinned one
// when non-nil (pooled false), a pooled one otherwise.
func acquireFlowWorkspace(pinned *FlowWorkspace) (ws *FlowWorkspace, pooled bool) {
	if pinned != nil {
		return pinned, false
	}
	return flowWorkspacePool.Get().(*FlowWorkspace), true
}

// releaseFlowWorkspace returns a pooled workspace; a pinned one stays with
// its owner.  The cancellation hook never survives a release: the next
// borrower must start uncancellable.
func releaseFlowWorkspace(ws *FlowWorkspace, pooled bool) {
	if pooled {
		ws.Stop = nil
		flowWorkspacePool.Put(ws)
	}
}

// grow returns a length-n slice backed by buf when it is large enough, an
// exact-size fresh allocation otherwise.  Contents are unspecified; callers
// that need zeroed or sentinel-filled memory initialise explicitly.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}
