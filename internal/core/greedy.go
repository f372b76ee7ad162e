package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/stats"
)

// Greedy is the global edge-greedy algorithm: consider edges in decreasing
// weight order and take every edge whose endpoints still have capacity.
//
// The feasible assignments form the intersection of two partition matroids
// (worker capacities, task replications), so this greedy is a classical
// ½-approximation of the optimum — and in practice it lands within a few
// percent (R-Fig10).
//
// A one-shot solve is O(E): linear passes bucket the edges by weight, and
// only the edges still live when their bucket comes up are radix-sorted
// and scanned, which is what makes it the only viable algorithm at
// millions of edges (R-Fig9).  With a pinned workspace, Greedy also keeps
// its edge order between solves (see residentGreedy): a problem that
// RebuildProblem refreshed from the build it solved last costs the
// arrivals' edges plus the edges the walk reaches, not the market.  The
// selection is the same either way.
type Greedy struct {
	Kind WeightKind
	// WS optionally pins a reusable workspace, which then also keeps the
	// resident edge order between solves; nil borrows one from the
	// package pool per call and solves one-shot.
	WS *Workspace
}

// Name implements Solver.
func (s Greedy) Name() string {
	switch {
	case s.Kind == QualityWeight:
		return "quality-only"
	case s.Kind == WorkerWeight:
		return "worker-only"
	default:
		return "greedy"
	}
}

// Solve implements Solver.  Ties are broken by edge index, so the result is
// deterministic; the RNG is unused.
func (s Greedy) Solve(p *Problem, _ *stats.RNG) ([]int, error) {
	if s.WS != nil {
		return copySel(greedyResident(p, s.Kind, s.WS)), nil
	}
	ws := workspacePool.Get().(*Workspace)
	defer workspacePool.Put(ws)
	return copySel(greedyInto(p, s.Kind, ws)), nil
}

// greedyBuckets is the number of key-range buckets greedyInto scatters the
// edges into before ordering them one bucket at a time.
const greedyBuckets = 256

// greedyBatch is the number of surviving edges greedyInto gathers, across
// consecutive buckets, before ordering them in one radix sort.
const greedyBatch = 1024

// greedyEntry is one edge of greedyInto's bucket scatter: its index and
// endpoints, so the liveness filter never reads the edge columns.
type greedyEntry struct{ idx, w, t int32 }

// parallelGreedyCutoff is the edge count below which greedyInto's O(E)
// passes stay on the calling goroutine.
const parallelGreedyCutoff = 1 << 15

// greedyInto runs edge-greedy with all scratch drawn from ws and returns
// the selection backed by ws.sel (valid until ws's next use), leaving
// ws.capW/ws.capT at the residual capacities.  LocalSearch seeds from it
// without paying the copy.
//
// Only edges that can still be taken are ordered.  One pass computes every
// edge's orderKey and the key range; a stable scatter then distributes the
// edges into greedyBuckets buckets by the top 8 significant bits of
// key − minKey.  Buckets are walked in key order (decreasing weight): edges
// with a saturated endpoint are dropped, and the survivors are radix-sorted
// by key (radixSortByKey, the passes of the shared ordering kernel) and
// taken while they fit.  The walk stops once either side has no slot left.
//
// The key, count and scatter passes run over contiguous edge chunks on
// forChunks, which re-raises a chunk's panic on the caller; the walk is
// serial.
//
// The selection is bit-identical to ordering every edge with
// sortEdgesByWeightWS and scanning the full order.  Bucketing is monotone
// in the key, so bucket order is key order and equal weights share a
// bucket; the scatter is stable, so equal weights keep ascending index
// order, which the stable sort preserves; and capacities only decrease, so
// an edge dead when its bucket comes up would be skipped by the full scan
// too.
func greedyInto(p *Problem, kind WeightKind, ws *Workspace) []int {
	return greedyIntoProcs(p, kind, ws, 0)
}

// greedyIntoProcs is greedyInto over an explicit number of chunks, so
// tests can force the chunked passes regardless of GOMAXPROCS and market
// size.  procs <= 0 selects GOMAXPROCS with the small-market cutoff.
func greedyIntoProcs(p *Problem, kind WeightKind, ws *Workspace, procs int) []int {
	capW, capT := p.capacityWInto(ws), p.capacityTInto(ws)
	wt := p.weightsInto(kind, &ws.edgeWt)
	sel := grow(ws.sel, 0)[:0]
	remW, remT := positiveSum(capW), positiveSum(capT)
	n := p.NumEdges()
	if n == 0 || remW == 0 || remT == 0 {
		ws.sel = sel
		return sel
	}

	procs = fanOut(procs, n, parallelGreedyCutoff)
	g := &ws.scan
	if cap(g.chunks) < procs {
		g.chunks = make([]greedyChunk, procs)
	}
	g.chunks = g.chunks[:procs]
	for k := range g.chunks {
		g.chunks[k].lo, g.chunks[k].hi = k*n/procs, (k+1)*n/procs
	}
	ws.keys = grow(ws.keys, n)
	ws.entries = grow(ws.entries, n)
	g.wt, g.w, g.t = wt, p.W, p.T
	g.keys, g.entries = ws.keys[:n], ws.entries[:n]

	forChunks(g, procs, (*greedyScan).keyChunk)
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for k := range g.chunks {
		lo, hi = min(lo, g.chunks[k].minKey), max(hi, g.chunks[k].maxKey)
	}
	g.lo, g.shift = lo, 0
	if l := bits.Len64(hi - lo); l > 8 {
		g.shift = uint(l - 8)
	}

	// start[b] is bucket b's offset into entries.  Within a bucket, chunk
	// k's slots follow chunk k−1's, so each bucket still lists its edges
	// in ascending index: the scatter stays stable.
	forChunks(g, procs, (*greedyScan).countChunk)
	var start [greedyBuckets + 1]int
	widest, at := 0, 0
	for b := 0; b < greedyBuckets; b++ {
		start[b] = at
		for k := range g.chunks {
			c := &g.chunks[k]
			c.next[b], at = at, at+c.next[b]
		}
		widest = max(widest, at-start[b])
	}
	start[greedyBuckets] = at
	forChunks(g, procs, (*greedyScan).scatterChunk)
	keys, entries := g.keys, g.entries
	g.wt, g.w, g.t = nil, nil, nil // the workspace must not pin the problem

	// Survivors are gathered with their keys and endpoints, so ordering
	// and taking them never reads the edge columns.  Consecutive buckets are pooled
	// until greedyBatch survivors are waiting, which keeps the fixed cost
	// of each radix sort small against the edges it orders.  A batch is
	// sorted as positions into it: equal keys share a bucket, where
	// positions ascend with edge index.
	m := widest + greedyBatch
	ws.batchKeys = grow(ws.batchKeys, 2*m)
	ws.batch = grow(ws.batch, m)
	ws.order = grow(ws.order, m)
	ws.orderTmp = grow(ws.orderTmp, m)
	bkeys, batch := ws.batchKeys[:0:m], ws.batch[:0]
	for b := 0; b < greedyBuckets && remW > 0 && remT > 0; b++ {
		for _, e := range entries[start[b]:start[b+1]] {
			if capW[e.w] > 0 && capT[e.t] > 0 {
				bkeys = append(bkeys, keys[e.idx])
				batch = append(batch, e)
			}
		}
		if len(batch) < greedyBatch && b < greedyBuckets-1 {
			continue
		}
		nb := len(batch)
		pos := ws.order[:nb]
		for i := range pos {
			pos[i] = int32(i)
		}
		radixSortByKey(bkeys, ws.batchKeys[m:m+nb], pos, ws.orderTmp[:nb], &ws.radixHist)
		for _, i := range pos {
			e := batch[i]
			if capW[e.w] > 0 && capT[e.t] > 0 {
				capW[e.w]--
				capT[e.t]--
				remW--
				remT--
				sel = append(sel, int(e.idx))
			}
		}
		bkeys, batch = bkeys[:0], batch[:0]
	}
	ws.sel = sel
	return sel
}

// positiveSum is the total of the positive entries of caps: the slots a
// side has to give.
func positiveSum(caps []int) int {
	s := 0
	for _, c := range caps {
		if c > 0 {
			s += c
		}
	}
	return s
}

// greedyScan is the shared state of greedyInto's chunked O(E) passes.
// It lives in the Workspace, so the serial path allocates nothing.
type greedyScan struct {
	wt      []float64     // the weight column being ordered
	w, t    []int32       // the problem's W and T columns
	keys    []uint64      // keys[i] = orderKey of edge i
	entries []greedyEntry // the bucket scatter
	lo      uint64        // minimum key
	shift   uint          // bucket of key k: (k − lo) >> shift
	chunks  []greedyChunk
}

// greedyChunk is the edge range [lo, hi) of one pass chunk, with its key
// range and per-bucket counts, then scatter cursors.
type greedyChunk struct {
	lo, hi         int
	minKey, maxKey uint64
	next           [greedyBuckets]int
}

// keyChunk computes chunk k's keys and key range.
func (g *greedyScan) keyChunk(k int) {
	c := &g.chunks[k]
	lo, hi := uint64(math.MaxUint64), uint64(0)
	keys := g.keys[c.lo:c.hi]
	for i, v := range g.wt[c.lo:c.hi] {
		key := orderKey(v)
		keys[i] = key
		lo, hi = min(lo, key), max(hi, key)
	}
	c.minKey, c.maxKey = lo, hi
}

// countChunk counts chunk k's edges per bucket.
func (g *greedyScan) countChunk(k int) {
	c := &g.chunks[k]
	c.next = [greedyBuckets]int{}
	for _, key := range g.keys[c.lo:c.hi] {
		c.next[(key-g.lo)>>g.shift]++
	}
}

// scatterChunk places chunk k's edges at its bucket cursors, in index
// order.
func (g *greedyScan) scatterChunk(k int) {
	c := &g.chunks[k]
	for i := c.lo; i < c.hi; i++ {
		b := (g.keys[i] - g.lo) >> g.shift
		g.entries[c.next[b]] = greedyEntry{idx: int32(i), w: g.w[i], t: g.t[i]}
		c.next[b]++
	}
}

// residentDenseDiv bounds where the resident walk pays: once the takes a
// round can make (the total capacity of the scarcer side) reach
// 1/residentDenseDiv of the edges, the one-shot scan serves instead.  The
// walk's heap steps grow with the entries it reaches, the scan's per-edge
// passes do not.  On refreshed 1% churn rounds of a 1600×1200 freelance
// market, with capacities scaled so those takes ran from 0.35% to 20% of
// the edges, the walk cost 0.46× the scan at 0.35%, 0.94–1.01× at
// 5.6–5.9%, 1.03–1.05× at 6.3–6.7% and 1.8× at 20% (EXPERIMENTS.md).
const residentDenseDiv = 16

// residentCompactDiv is when the resident order is compacted: once its
// dead entries plus its tail pass 1/residentCompactDiv of the edges.
const residentCompactDiv = 8

// residentGreedy is the edge order a pinned workspace keeps between greedy
// solves, so that a problem RebuildProblem refreshed from the last build
// this workspace solved is served without ordering the market again.
//
// Workers and tasks are named by slots, which outlive index shifts.  A
// layout gives every entity the slot equal to its index; a refresh keeps
// each survivor's slot, points a departed entity's slot at its side's
// sentinel index (one past the last, with zero capacity), and gives the
// arrivals fresh slots in index order.  Survivors keep their relative
// order and arrivals take the largest indices, so slot order is index
// order among live entities, and ordering entries by (key, worker slot,
// task slot) is ordering their edges by (weight, edge index): the order of
// the one-shot scan.
//
// Every edge of the problem has exactly one entry: in the list of its task
// if it was present at the last layout or compaction, otherwise in the
// tail, one list sorted across tasks.  Entries whose worker or task
// departed stay, dead, until the next compaction.
type residentGreedy struct {
	// last is the build generation of the problem this workspace last
	// solved (0: none), and laid whether the order below is up to date
	// for it, ordered by kind.
	last uint64
	laid bool
	kind WeightKind

	// Task slot s's list is key[off[s]:off[s+1]] with the worker slots
	// w[off[s]:off[s+1]], ascending by (key, worker slot).  key2, w2 and
	// off2 are the arrays a compaction writes the next lists into.
	key, key2 []uint64
	w, w2     []int32
	off, off2 []int32
	// tail holds the entries that arrived since the last layout or
	// compaction, ascending by (key, worker slot, task slot).
	tail []residentHead

	workers, tasks residentSide

	// Scratch: the walk's per-task cursors and heap, an update's arrivals,
	// a compaction's tail by task with its offsets and cursors, and the
	// chunk bounds (over task indices) of its parallel passes.
	cur        []int32
	heap       []residentHead
	arr        []residentHead
	bucket     []residentHead
	toff, bcur []int32
	bounds     []int
}

// residentHead is one entry of the resident order: an edge's order key
// with its worker and task slot.  In the walk's heap it is a task's next
// entry.
type residentHead struct {
	key  uint64
	w, t int32
}

// before reports whether a precedes b in greedy order.
func (a residentHead) before(b residentHead) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.w != b.w {
		return a.w < b.w
	}
	return a.t < b.t
}

// residentSide is one side's slot bookkeeping.
type residentSide struct {
	at     []int32 // slot → current index, or the sentinel (the side's size)
	slotOf []int32 // current index → slot
	spare  []int32 // the previous slotOf while remap writes the next
}

// identity gives each of n entities the slot equal to its index.
func (s *residentSide) identity(n int) {
	s.at, s.slotOf = grow(s.at, n), grow(s.slotOf, n)
	for i := range s.at {
		s.at[i], s.slotOf[i] = int32(i), int32(i)
	}
}

// remap carries the slots over one refresh whose correspondence is prev
// (Delta.PrevWorker or Delta.PrevTask): survivors keep their slots,
// departed slots point at the sentinel len(prev), and arrivals take fresh
// slots in index order.
func (s *residentSide) remap(prev []int32) {
	n := int32(len(prev))
	old := s.slotOf
	s.slotOf, s.spare = grow(s.spare, len(prev)), old
	for k := range s.at {
		s.at[k] = n
	}
	for i, q := range prev {
		var slot int32
		if q >= 0 {
			slot = old[q]
		} else {
			slot = int32(len(s.at))
			s.at = append(s.at, 0)
		}
		s.slotOf[i] = slot
		s.at[slot] = int32(i)
	}
}

// greedyResident is Greedy.Solve through a pinned workspace.  It returns
// the same selection as greedyInto, in the same take order, with ws.capW
// and ws.capT left at the same residual capacities, and serves from the
// resident order when it can:
//
//   - a repeat solve of the build it last solved walks the order as is;
//   - a problem RebuildProblem refreshed from that build updates the order
//     by the refresh's Delta, which the problem keeps, then walks it;
//   - any other rebuild of that build (a full one, such as after a
//     MaxPayment change, or the round after a one-shot solve) lays the
//     order out afresh, then walks it.
//
// Everything else, the first solve of a problem lineage included, runs
// the one-shot greedyInto, as does a market where greedy can take a large
// share of the edges (residentDenseDiv).  A one-shot solve of the build
// this workspace solved last runs on the workspace itself, so re-solving
// one problem stays allocation-free; any other one-shot solve, and the
// layout, draw their per-edge scratch from the package pool, so a
// workspace that serves round after round keeps only the order.  The
// order counts as stale from the start of an update or layout until it
// completes, so a panic midway leaves the next solve to lay it out
// afresh.
func greedyResident(p *Problem, kind WeightKind, ws *Workspace) []int {
	r := &ws.res
	last, laid := r.last, r.laid && r.kind == kind
	r.last, r.laid = p.bs.gen, false
	compact := false
	switch {
	case p.bs.gen == last && !laid:
		return greedyInto(p, kind, ws)
	case p.bs.gen == 0 || last == 0 || denseTakes(p):
		return greedyPooled(p, kind, ws)
	case p.bs.gen == last:
	case p.bs.from == last && laid && p.bs.refreshed:
		compact = r.update(p, kind, ws)
	case p.bs.from == last:
		ws.keys, ws.entries = nil, nil
		r.layout(p, kind)
	default:
		return greedyPooled(p, kind, ws)
	}
	var sel []int
	if compact {
		// A compaction reads the order the walk reads and writes only its
		// next arrays, so the two run side by side; the result is the
		// same as walking first.
		forChunks(r, 2, func(r *residentGreedy, k int) {
			if k == 0 {
				sel = r.walk(p, ws)
			} else {
				r.compact(p)
			}
		})
		r.adoptCompaction(p)
	} else {
		sel = r.walk(p, ws)
	}
	r.laid, r.kind = true, kind
	return sel
}

// greedyPooled is greedyInto on a workspace borrowed from the pool, with
// the selection and residual capacities copied into ws as greedyInto
// leaves them.
func greedyPooled(p *Problem, kind WeightKind, ws *Workspace) []int {
	pooled := workspacePool.Get().(*Workspace)
	defer workspacePool.Put(pooled)
	ws.sel = append(ws.sel[:0], greedyInto(p, kind, pooled)...)
	ws.capW = append(ws.capW[:0], pooled.capW...)
	ws.capT = append(ws.capT[:0], pooled.capT...)
	return ws.sel
}

// denseTakes reports whether greedy can take at least 1/residentDenseDiv
// of p's edges: the total capacity of the scarcer side against the edge
// count.
func denseTakes(p *Problem) bool {
	capW, capT := 0, 0
	for i := range p.In.Workers {
		capW += max(0, p.In.Workers[i].Capacity)
	}
	for j := range p.In.Tasks {
		capT += max(0, p.In.Tasks[j].Replication)
	}
	return residentDenseDiv*min(capW, capT) >= p.NumEdges()
}

// chunkTasks splits the nT tasks into chunks of about equal weight, where
// task t weighs off[t+1] − off[t], into r.bounds, and returns how many.
func (r *residentGreedy) chunkTasks(off []int32, nT int) int {
	total := int(off[nT])
	procs := min(fanOut(0, total, parallelGreedyCutoff), max(1, nT))
	r.bounds = grow(r.bounds, procs+1)
	r.bounds[0], r.bounds[procs] = 0, nT
	for k := 1; k < procs; k++ {
		target := int32(int64(total) * int64(k) / int64(procs))
		r.bounds[k] = sort.Search(nT, func(t int) bool { return off[t] >= target })
	}
	return procs
}

// layout orders p's edges from scratch: one counting pass lists each
// task's edges, in edge order, as (key, worker) in key2 and w2; then, in
// task chunks on forChunks, the ordering kernel's radix passes
// (radixSortByKey) stably sort each list by key into key and w.  A task's
// edges ascend with their worker, so each list ends up ascending by (key,
// worker).  Both pairs of arrays are touched, so a compaction never pays
// first-touch page faults; the sort scratch comes from the package pool.
func (r *residentGreedy) layout(p *Problem, kind WeightKind) {
	pooled := workspacePool.Get().(*Workspace)
	defer workspacePool.Put(pooled)
	nT, n := p.In.NumTasks(), p.NumEdges()
	wt := p.weightsInto(kind, &pooled.edgeWt)
	r.key, r.w = grow(r.key, n), grow(r.w, n)
	r.key2, r.w2 = grow(r.key2, n), grow(r.w2, n)
	r.off = grow(r.off, nT+1)
	copy(r.off, p.offT)
	cur := grow(r.cur, nT)
	r.cur = cur
	copy(cur, r.off[:nT])
	for e, t := range p.T {
		at := cur[t]
		cur[t]++
		r.key2[at], r.w2[at] = orderKey(wt[e]), p.W[e]
	}
	forChunks(r, r.chunkTasks(r.off, nT), func(r *residentGreedy, k int) {
		ws := workspacePool.Get().(*Workspace)
		defer workspacePool.Put(ws)
		for t := r.bounds[k]; t < r.bounds[k+1]; t++ {
			lo, hi := int(r.off[t]), int(r.off[t+1])
			m := hi - lo
			ws.keys, ws.order, ws.orderTmp = grow(ws.keys, 2*m), grow(ws.order, m), grow(ws.orderTmp, m)
			copy(ws.keys, r.key2[lo:hi])
			pos := ws.order[:m]
			for i := range pos {
				pos[i] = int32(i)
			}
			radixSortByKey(ws.keys[:m], ws.keys[m:2*m], pos, ws.orderTmp[:m], &ws.radixHist)
			for i, j := range pos {
				r.key[lo+i], r.w[lo+i] = r.key2[lo+int(j)], r.w2[lo+int(j)]
			}
		}
	})
	r.tail = r.tail[:0]
	r.workers.identity(p.In.NumWorkers())
	r.tasks.identity(nT)
}

// update carries the order over the refresh that built p: it remaps both
// sides' slots by the refresh's correspondence, sorts the arrivals' edges
// and merges them into the tail.  It reports whether the order is due a
// compaction: once dead entries and the tail pass 1/residentCompactDiv of
// the edges, or the slots outnumber the live workers and tasks twice over
// (entities can come and go without edges).
//
// The arrivals' edges are every edge of an arriving worker and, in a
// surviving worker's row, the suffix of edges to arriving tasks (rows
// list tasks ascending, and arrivals take the largest task indices).
// They are gathered in edge order, so a stable sort by key alone puts
// them in greedy order.
func (r *residentGreedy) update(p *Problem, kind WeightKind, ws *Workspace) bool {
	prevW, prevT := p.bs.prevWorker, p.bs.prevTask
	r.workers.remap(prevW)
	r.tasks.remap(prevT)
	firstArrT := len(prevT)
	for firstArrT > 0 && prevT[firstArrT-1] < 0 {
		firstArrT--
	}
	arr := r.arr[:0]
	for i, q := range prevW {
		lo, hi := p.AdjW(i)
		if q >= 0 {
			for lo < hi && int(p.T[hi-1]) >= firstArrT {
				hi--
			}
			lo, hi = hi, int(p.offW[i+1])
		}
		slot := r.workers.slotOf[i]
		for e := lo; e < hi; e++ {
			arr = append(arr, residentHead{key: orderKey(p.weightOf(kind, e)), w: slot, t: r.tasks.slotOf[p.T[e]]})
		}
	}
	r.arr = arr
	m := len(arr)
	ws.batchKeys = grow(ws.batchKeys, 2*m)
	ws.order, ws.orderTmp = grow(ws.order, m), grow(ws.orderTmp, m)
	pos := ws.order[:m]
	for i := range arr {
		ws.batchKeys[i], pos[i] = arr[i].key, int32(i)
	}
	radixSortByKey(ws.batchKeys[:m], ws.batchKeys[m:2*m], pos, ws.orderTmp[:m], &ws.radixHist)

	t0 := len(r.tail)
	r.tail = slices.Grow(r.tail, m)[:t0+m]
	i, k := t0-1, t0+m-1
	for j := m - 1; j >= 0; j-- {
		a := arr[pos[j]]
		for i >= 0 && a.before(r.tail[i]) {
			r.tail[k] = r.tail[i]
			i, k = i-1, k-1
		}
		r.tail[k] = a
		k--
	}

	listed := int(r.off[len(r.off)-1])
	dead := listed + len(r.tail) - p.NumEdges()
	slots := len(r.workers.at) + len(r.tasks.at)
	return residentCompactDiv*(dead+len(r.tail)) > p.NumEdges() || slots > 2*(len(prevW)+len(prevT))
}

// compact writes the layout of p into key2, w2 and off2: every list
// ascending by (key, worker index) with its dead entries dropped and its
// tail entries merged in.  The tail is bucketed by task first; then, in
// task chunks on forChunks, one pass counts each task's live entries and,
// after a prefix sum, another merges each list with its bucket.  It
// writes nothing the walk reads; adoptCompaction switches to the result.
//
// Tasks that survive from the last layout or compaction hold the lowest
// indices, in slot order; later arrivals follow and have only a bucket.
func (r *residentGreedy) compact(p *Problem) {
	nW, nT, n := int32(len(r.workers.slotOf)), len(r.tasks.slotOf), p.NumEdges()
	wAt, tAt := r.workers.at, r.tasks.at

	toff := grow(r.toff, nT+1)
	r.toff = toff
	clear(toff)
	live := 0
	for _, e := range r.tail {
		if wi, ti := wAt[e.w], tAt[e.t]; wi < nW && int(ti) < nT {
			toff[ti+1]++
			live++
		}
	}
	for t := 0; t < nT; t++ {
		toff[t+1] += toff[t]
	}
	bucket := grow(r.bucket, live)
	r.bucket = bucket
	tcur := grow(r.bcur, nT)
	r.bcur = tcur
	copy(tcur, toff[:nT])
	for _, e := range r.tail {
		if wi, ti := wAt[e.w], tAt[e.t]; wi < nW && int(ti) < nT {
			bucket[tcur[ti]] = residentHead{key: e.key, w: wi, t: ti}
			tcur[ti]++
		}
	}

	// off2 first holds each task's upper bound (list plus bucket) to
	// chunk by, then its live count, then, summed, the new offsets.
	off2 := grow(r.off2, nT+1)
	r.off2 = off2
	off2[0] = 0
	for t := 0; t < nT; t++ {
		lo, hi := r.listOf(t)
		off2[t+1] = off2[t] + hi - lo + toff[t+1] - toff[t]
	}
	procs := r.chunkTasks(off2, nT)
	forChunks(r, procs, (*residentGreedy).countChunk)
	off2[0] = 0
	for t := 0; t < nT; t++ {
		off2[t+1] += off2[t]
	}
	if int(off2[nT]) != n {
		panic(fmt.Sprintf("core: resident greedy order holds %d live entries for %d edges", off2[nT], n))
	}
	r.key2, r.w2 = grow(r.key2, n), grow(r.w2, n)
	forChunks(r, procs, (*residentGreedy).mergeChunk)
}

// adoptCompaction makes compact's output the order: its lists replace
// the old ones, the tail empties and every slot becomes its entity's
// index.
func (r *residentGreedy) adoptCompaction(p *Problem) {
	r.key, r.key2 = r.key2, r.key
	r.w, r.w2 = r.w2, r.w
	r.off, r.off2 = r.off2, r.off
	r.tail = r.tail[:0]
	r.workers.identity(p.In.NumWorkers())
	r.tasks.identity(p.In.NumTasks())
}

// listOf returns the range of current task t's list, empty when t
// arrived after the last layout or compaction.
func (r *residentGreedy) listOf(t int) (lo, hi int32) {
	if s := int(r.tasks.slotOf[t]); s+1 < len(r.off) {
		return r.off[s], r.off[s+1]
	}
	return 0, 0
}

// countChunk sets off2[t+1] to the live entries of chunk k's tasks: the
// list entries whose worker is live, plus the bucket.
func (r *residentGreedy) countChunk(k int) {
	sentinel := int32(len(r.workers.slotOf))
	wAt, w, toff, off2 := r.workers.at, r.w, r.toff, r.off2
	for t := r.bounds[k]; t < r.bounds[k+1]; t++ {
		lo, hi := r.listOf(t)
		c := toff[t+1] - toff[t]
		for _, ws := range w[lo:hi] {
			if wAt[ws] != sentinel {
				c++
			}
		}
		off2[t+1] = c
	}
}

// mergeChunk merges each of chunk k's tasks' live list entries, renumbered
// to worker indices, with its bucket into key2 and w2 from off2[t].
func (r *residentGreedy) mergeChunk(k int) {
	sentinel := int32(len(r.workers.slotOf))
	wAt, key, w, key2, w2, bucket := r.workers.at, r.key, r.w, r.key2, r.w2, r.bucket
	for t := r.bounds[k]; t < r.bounds[k+1]; t++ {
		lo, hi := r.listOf(t)
		b, bEnd := r.toff[t], r.toff[t+1]
		at := r.off2[t]
		for i := lo; i < hi; i++ {
			wi := wAt[w[i]]
			if wi == sentinel {
				continue
			}
			ki := key[i]
			for b < bEnd && (bucket[b].key < ki || bucket[b].key == ki && bucket[b].w < wi) {
				key2[at], w2[at] = bucket[b].key, bucket[b].w
				at, b = at+1, b+1
			}
			key2[at], w2[at] = ki, wi
			at++
		}
		for ; b < bEnd; b++ {
			key2[at], w2[at] = bucket[b].key, bucket[b].w
			at++
		}
	}
}

// walk runs greedy over the resident order: a heap over the tasks' next
// entries, merged with the tail.  A task leaves the heap once it fills or
// its list runs out, and advancing a task skips its entries whose worker
// is full (dead workers included, at the sentinel) without touching the
// heap: capacities only fall, so the full scan would skip them too.
func (r *residentGreedy) walk(p *Problem, ws *Workspace) []int {
	nW, nT := p.In.NumWorkers(), p.In.NumTasks()
	capW := append(p.capacityWInto(ws), 0)
	capT := append(p.capacityTInto(ws), 0)
	remW, remT := positiveSum(capW), positiveSum(capT)
	sel := grow(ws.sel, 0)[:0]
	wAt, tAt, key, w, off := r.workers.at, r.tasks.at, r.key, r.w, r.off
	lists := len(off) - 1
	cur := grow(r.cur, lists)
	r.cur = cur
	h := r.heap[:0]
	for s := 0; s < lists; s++ {
		if capT[tAt[s]] <= 0 {
			continue
		}
		j, end := off[s], off[s+1]
		for j < end && capW[wAt[w[j]]] <= 0 {
			j++
		}
		if j < end {
			cur[s] = j
			h = append(h, residentHead{key: key[j], w: w[j], t: int32(s)})
		}
	}
	for k := len(h)/2 - 1; k >= 0; k-- {
		siftDownHeads(h, k)
	}
	tail := r.tail
	x := 0
	for remW > 0 && remT > 0 {
		var e residentHead
		fromHeap := len(h) > 0 && (x == len(tail) || h[0].before(tail[x]))
		switch {
		case fromHeap:
			e = h[0]
		case x < len(tail):
			e = tail[x]
			x++
		default:
			remW = 0
			continue
		}
		wi, ti := wAt[e.w], tAt[e.t]
		if capW[wi] > 0 && capT[ti] > 0 {
			capW[wi]--
			capT[ti]--
			remW--
			remT--
			sel = append(sel, p.edgeOf(wi, ti))
		}
		if !fromHeap {
			continue
		}
		// Advance the task past this entry and the run of full workers
		// after it, or drop it from the heap.
		s, j, end := e.t, cur[e.t]+1, off[e.t+1]
		if capT[ti] <= 0 {
			j = end
		}
		for j < end && capW[wAt[w[j]]] <= 0 {
			j++
		}
		if j < end {
			cur[s] = j
			h[0].key, h[0].w = key[j], w[j]
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDownHeads(h, 0)
	}
	r.heap = h
	ws.capW, ws.capT, ws.sel = capW[:nW], capT[:nT], sel
	return sel
}

// siftDownHeads restores the heap order of h below position k.
func siftDownHeads(h []residentHead, k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// weightOf is edge e's value under kind: Weights(kind)[e].
func (p *Problem) weightOf(kind WeightKind, e int) float64 {
	switch kind {
	case MutualWeight:
		return p.M[e]
	case QualityWeight:
		return p.Quality(e)
	case WorkerWeight:
		return p.Utility(e)
	}
	panic("core: unknown weight kind")
}

// edgeOf returns the index of the edge that pairs worker w with task t,
// by binary search of w's row, which lists its tasks ascending.
func (p *Problem) edgeOf(w, t int32) int {
	lo, hi := p.offW[w], p.offW[w+1]
	end := hi
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if p.T[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == end || p.T[lo] != t {
		panic(fmt.Sprintf("core: resident greedy order pairs worker %d with task %d, which share no edge", w, t))
	}
	return int(lo)
}

// QualityOnly is the strongest classical baseline: greedy assignment by
// requester-side quality alone, ignoring what workers get out of it.
func QualityOnly() Solver { return Greedy{Kind: QualityWeight} }

// WorkerOnly is the opposite baseline: greedy by worker utility alone.
func WorkerOnly() Solver { return Greedy{Kind: WorkerWeight} }

// Random assigns by scanning a uniformly shuffled edge order and taking
// whatever fits.  It is the sanity floor of every comparison plot.
type Random struct {
	// WS optionally pins a reusable workspace.
	WS *Workspace
}

// Name implements Solver.
func (Random) Name() string { return "random" }

// Solve implements Solver.
func (s Random) Solve(p *Problem, r *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	ws.ints = r.PermInto(ws.ints, p.NumEdges())
	ws.sel = grow(ws.sel, 0)[:0]
	ws.sel = takeFeasible(p, ws.ints, p.capacityWInto(ws), p.capacityTInto(ws), ws.sel)
	return copySel(ws.sel), nil
}

// takeFeasible is Random's feasibility scan: walk order, take every edge
// whose endpoints still have capacity, decrementing capW/capT and
// appending to sel.
func takeFeasible(p *Problem, order []int, capW, capT []int, sel []int) []int {
	for _, ei := range order {
		w, t := p.W[ei], p.T[ei]
		if capW[w] > 0 && capT[t] > 0 {
			capW[w]--
			capT[t]--
			sel = append(sel, ei)
		}
	}
	return sel
}

// RoundRobin iterates tasks in id order and hands each open slot to the next
// eligible worker in a rotating cursor — the "fair dispatcher" many real
// platforms actually run, and a second sanity baseline.
type RoundRobin struct {
	// WS optionally pins a reusable workspace.
	WS *Workspace
}

// Name implements Solver.
func (RoundRobin) Name() string { return "round-robin" }

// Solve implements Solver.  Deterministic; the RNG is unused.
func (s RoundRobin) Solve(p *Problem, _ *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	capW := p.capacityWInto(ws)
	capT := p.capacityTInto(ws)
	chosen := growBoolZero(ws.chosen, p.NumEdges())
	ws.chosen = chosen
	ws.sel = grow(ws.sel, 0)[:0]
	sel := ws.sel
	// cursor[t] rotates over AdjT(t) so repeated slots of the same task go
	// to different workers; the chosen guard prevents re-taking an edge when
	// the cursor wraps around.
	progress := true
	ws.ints = grow(ws.ints, p.In.NumTasks())
	cursor := ws.ints
	clear(cursor)
	for progress {
		progress = false
		for t := 0; t < p.In.NumTasks(); t++ {
			if capT[t] == 0 {
				continue
			}
			adj := p.AdjT(t)
			for n := 0; n < len(adj); n++ {
				ei := int(adj[cursor[t]%len(adj)])
				cursor[t]++
				w := p.W[ei]
				if !chosen[ei] && capW[w] > 0 {
					chosen[ei] = true
					capW[w]--
					capT[t]--
					sel = append(sel, ei)
					progress = true
					break
				}
			}
		}
	}
	ws.sel = sel
	return copySel(sel), nil
}
