package platform

import "repro/internal/core"

// reconcileShards resolves cross-shard worker over-subscription in a round
// in flight with the optimistic-sharding pattern — optimistic shards,
// keep-heaviest, refill — built on the core.ReconcileTake primitive.  It
// mutates each shard's sel/pairs in place and returns the global
// drop/refill counts (also recorded per shard on out.info).
//
// Step 1 (detect): a worker is contested when its picks summed across
// shards exceed its capacity.  Only spanning workers can be — each shard's
// solver already respects capacities locally — and tasks never are, since
// a task lives in exactly one shard.
//
// Step 2 (keep-heaviest): all of a contested worker's picks compete in a
// dense space of contested workers × touched tasks; capW is the worker's
// true capacity, capT is the number of contested picks on the task (the
// only slots up for grabs — picks of uncontested workers keep theirs).
// ReconcileTake keeps the heaviest feasible subset by mutual benefit.
//
// Step 3 (refill): dropped picks free task slots.  Candidates are the
// owning shard's remaining edges into each freed task, excluding workers
// already assigned that task and workers with no global residual capacity
// (capacity minus pairs held after step 2).  A second ReconcileTake fills
// greedily by weight.
//
// The pass is deterministic: picks and candidates are collected in (shard,
// position) order, dense indices are assigned first-seen, and ReconcileTake
// breaks weight ties by ascending Ref.
func reconcileShards(outs []*shardSolve) (dropped, refilled int) {
	// Step 1: per-worker pick totals across shards.
	type wtotal struct{ cap, picks int }
	totals := map[int]*wtotal{}
	for _, out := range outs {
		if out.solveErr != nil || len(out.sel) == 0 {
			continue
		}
		for _, ei := range out.sel {
			w := out.p.W[ei]
			wid := out.workerIDs[w]
			tot := totals[wid]
			if tot == nil {
				tot = &wtotal{cap: out.in.Workers[w].Capacity}
				totals[wid] = tot
			}
			tot.picks++
		}
	}
	anyContested := false
	for _, tot := range totals {
		if tot.picks > tot.cap {
			anyContested = true
			break
		}
	}
	if !anyContested {
		return 0, 0
	}

	// Step 2: dense reconcile space over the contested picks.
	wIndex := map[int]int32{} // worker ID → dense contested-worker index
	var capW []int
	tIndex := map[int]int32{} // task ID → dense touched-task index
	var capT []int
	type taskRef struct {
		shard  int
		denseT int // task index inside outs[shard]'s snapshot
		tid    int
	}
	var touched []taskRef
	var picks []core.PickEdge
	for k, out := range outs {
		if out.solveErr != nil || len(out.sel) == 0 {
			continue
		}
		for _, ei := range out.sel {
			wid := out.workerIDs[out.p.W[ei]]
			tot := totals[wid]
			if tot.picks <= tot.cap {
				continue
			}
			wi, ok := wIndex[wid]
			if !ok {
				wi = int32(len(capW))
				wIndex[wid] = wi
				capW = append(capW, tot.cap)
			}
			t := int(out.p.T[ei])
			tid := out.taskIDs[t]
			ti, ok := tIndex[tid]
			if !ok {
				ti = int32(len(capT))
				tIndex[tid] = ti
				capT = append(capT, 0)
				touched = append(touched, taskRef{shard: k, denseT: t, tid: tid})
			}
			capT[ti]++
			// Ref is the pick's collection index: it both makes the take
			// order strict and lets the apply loop below walk the keep
			// flags with one cursor in the same (shard, position) order.
			picks = append(picks, core.PickEdge{W: wi, T: ti, Weight: out.p.M[ei], Ref: int32(len(picks))})
		}
	}
	kept := core.ReconcileTake(picks, capW, capT)
	dropped = len(picks) - kept
	keep := make([]bool, len(picks))
	for i := 0; i < kept; i++ {
		keep[picks[i].Ref] = true
	}

	// Apply the drops in (shard, position) order — the same order metas
	// were collected in, so one cursor suffices — while accumulating each
	// worker's surviving pair count and, for freed tasks, the worker set
	// already assigned (both feed the refill).
	freed := map[int]bool{} // task IDs with freed slots
	for ti := range touched {
		if capT[ti] > 0 {
			freed[touched[ti].tid] = true
		}
	}
	held := map[int]int{}             // worker ID → surviving pairs
	onFreed := map[int]map[int]bool{} // freed task ID → assigned workers
	cursor := 0                       // index into metas/keep
	for _, out := range outs {
		if out.solveErr != nil || len(out.sel) == 0 {
			continue
		}
		newSel := out.sel[:0]
		newPairs := out.pairs[:0]
		for pos, ei := range out.sel {
			wid := out.workerIDs[out.p.W[ei]]
			tot := totals[wid]
			if tot.picks > tot.cap {
				won := keep[cursor]
				cursor++
				if !won {
					out.info.ReconcileDropped++
					continue
				}
			}
			newSel = append(newSel, ei)
			newPairs = append(newPairs, out.pairs[pos])
			held[wid]++
			if tid := out.taskIDs[out.p.T[ei]]; freed[tid] {
				set := onFreed[tid]
				if set == nil {
					set = map[int]bool{}
					onFreed[tid] = set
				}
				set[wid] = true
			}
		}
		out.sel, out.pairs = newSel, newPairs
	}

	// Step 3: refill freed slots from the owning shards' remaining edges.
	rIndex := map[int]int32{} // worker ID → refill dense index (-1: no room)
	var rcapW []int
	var fcapT []int
	type candMeta struct {
		shard int
		ei    int32
	}
	var cmetas []candMeta
	var cands []core.PickEdge
	for ti := range touched {
		if capT[ti] == 0 {
			continue
		}
		tr := touched[ti]
		out := outs[tr.shard]
		fi := int32(len(fcapT))
		fcapT = append(fcapT, capT[ti])
		for _, ei := range out.p.AdjT(tr.denseT) {
			w := out.p.W[ei]
			wid := out.workerIDs[w]
			if onFreed[tr.tid][wid] {
				continue
			}
			ri, ok := rIndex[wid]
			if !ok {
				if avail := out.in.Workers[w].Capacity - held[wid]; avail > 0 {
					ri = int32(len(rcapW))
					rcapW = append(rcapW, avail)
				} else {
					ri = -1
				}
				rIndex[wid] = ri
			}
			if ri < 0 {
				continue
			}
			cands = append(cands, core.PickEdge{W: ri, T: fi, Weight: out.p.M[ei], Ref: int32(len(cmetas))})
			cmetas = append(cmetas, candMeta{shard: tr.shard, ei: ei})
		}
	}
	refilled = core.ReconcileTake(cands, rcapW, fcapT)
	for i := 0; i < refilled; i++ {
		cm := cmetas[cands[i].Ref]
		out := outs[cm.shard]
		out.sel = append(out.sel, int(cm.ei))
		out.pairs = append(out.pairs, out.pair(int(cm.ei)))
		out.info.ReconcileRefilled++
	}
	return dropped, refilled
}
