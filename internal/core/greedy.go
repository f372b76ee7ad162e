package core

import (
	"math"
	"math/bits"

	"repro/internal/stats"
)

// Greedy is the global edge-greedy algorithm: consider edges in decreasing
// weight order and take every edge whose endpoints still have capacity.
//
// The feasible assignments form the intersection of two partition matroids
// (worker capacities, task replications), so this greedy is a classical
// ½-approximation of the optimum — and in practice it lands within a few
// percent (R-Fig10).  Runtime is O(E): linear passes bucket the edges by
// weight, and only the edges still live when their bucket comes up are
// radix-sorted and scanned, which is what makes it the only viable
// algorithm at millions of edges (R-Fig9).
type Greedy struct {
	Kind WeightKind
	// WS optionally pins a reusable workspace; nil borrows one from the
	// package pool per call.
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
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	return copySel(greedyInto(p, s.Kind, ws)), nil
}

// greedyBuckets is the number of key-range buckets greedyInto scatters the
// edges into before ordering them one bucket at a time.
const greedyBuckets = 256

// greedyBatch is the number of surviving edges greedyInto gathers, across
// consecutive buckets, before ordering them in one radix sort.
const greedyBatch = 1024

// greedyEntry is one edge of greedyInto's bucket scatter: its index and
// endpoints, so the liveness filter never reads p.Edges.
type greedyEntry struct{ idx, w, t int32 }

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
// The selection is bit-identical to ordering every edge with
// sortEdgesByWeightWS and scanning the full order.  Bucketing is monotone
// in the key, so bucket order is key order and equal weights share a
// bucket; the scatter is stable, so equal weights keep ascending index
// order, which the stable sort preserves; and capacities only decrease, so
// an edge dead when its bucket comes up would be skipped by the full scan
// too.
func greedyInto(p *Problem, kind WeightKind, ws *Workspace) []int {
	capW, capT := p.capacityWInto(ws), p.capacityTInto(ws)
	sel := growInts(ws.sel, 0)[:0]
	remW, remT := positiveSum(capW), positiveSum(capT)
	n := len(p.Edges)
	if n == 0 || remW == 0 || remT == 0 {
		ws.sel = sel
		return sel
	}

	ws.keys = growU64(ws.keys, n)
	keys := ws.keys[:n]
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range p.Edges {
		k := orderKey(p.Edges[i].Weight(kind))
		keys[i] = k
		lo, hi = min(lo, k), max(hi, k)
	}
	var shift uint
	if l := bits.Len64(hi - lo); l > 8 {
		shift = uint(l - 8)
	}

	// start[b] is bucket b's offset into entries once the counts are
	// prefix-summed; next is the scatter cursor.
	var start [greedyBuckets + 1]int
	for _, k := range keys {
		start[(k-lo)>>shift+1]++
	}
	widest := 0
	for b := 1; b <= greedyBuckets; b++ {
		widest = max(widest, start[b])
		start[b] += start[b-1]
	}
	ws.entries = growEntries(ws.entries, n)
	entries := ws.entries[:n]
	next := start
	for i, k := range keys {
		b := (k - lo) >> shift
		e := &p.Edges[i]
		entries[next[b]] = greedyEntry{idx: int32(i), w: int32(e.W), t: int32(e.T)}
		next[b]++
	}

	// Survivors are gathered with their keys and endpoints, so ordering
	// and taking them never reads p.Edges.  Consecutive buckets are pooled
	// until greedyBatch survivors are waiting, which keeps the fixed cost
	// of each radix sort small against the edges it orders.  A batch is
	// sorted as positions into it: equal keys share a bucket, where
	// positions ascend with edge index.
	m := widest + greedyBatch
	ws.batchKeys = growU64(ws.batchKeys, 2*m)
	ws.batch = growEntries(ws.batch, m)
	ws.order = growI32(ws.order, m)
	ws.orderTmp = growI32(ws.orderTmp, m)
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
	ws.ints = r.PermInto(ws.ints, len(p.Edges))
	ws.sel = growInts(ws.sel, 0)[:0]
	ws.sel = takeFeasible(p, ws.ints, p.capacityWInto(ws), p.capacityTInto(ws), ws.sel)
	return copySel(ws.sel), nil
}

// takeFeasible is Random's feasibility scan: walk order, take every edge
// whose endpoints still have capacity, decrementing capW/capT and
// appending to sel.
func takeFeasible(p *Problem, order []int, capW, capT []int, sel []int) []int {
	for _, ei := range order {
		e := &p.Edges[ei]
		if capW[e.W] > 0 && capT[e.T] > 0 {
			capW[e.W]--
			capT[e.T]--
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
	chosen := growBoolZero(ws.chosen, len(p.Edges))
	ws.chosen = chosen
	ws.sel = growInts(ws.sel, 0)[:0]
	sel := ws.sel
	// cursor[t] rotates over AdjT(t) so repeated slots of the same task go
	// to different workers; the chosen guard prevents re-taking an edge when
	// the cursor wraps around.
	progress := true
	ws.ints = growInts(ws.ints, p.In.NumTasks())
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
				e := &p.Edges[ei]
				if !chosen[ei] && capW[e.W] > 0 {
					chosen[ei] = true
					capW[e.W]--
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
