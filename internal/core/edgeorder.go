package core

import (
	"cmp"
	"math"
	"slices"
)

// radixCutoff is the input length below which sortEdgesByWeightWS orders
// the keys with a comparison sort instead of the radix passes, whose 8 KB
// of histograms would dominate the per-worker and per-task sorts of the
// online solvers.
const radixCutoff = 256

// orderKey maps a weight to a uint64 whose ascending order is the weight's
// descending order.  −0 is folded onto +0 (the two compare equal), then the
// IEEE bits are made order-preserving — every bit flipped for negatives,
// only the sign bit otherwise — and the result inverted.
func orderKey(w float64) uint64 {
	b := math.Float64bits(w)
	if b == 1<<63 {
		b = 0
	}
	if b>>63 != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b
}

// sortEdgesByWeightWS is the ordering kernel behind the weight-ordered
// edge scans; Greedy, which gathers its own keys, runs its radix passes
// (radixSortByKey) directly.  It sorts idx (edge indices) in place by
// decreasing weight wt[e], ties broken by ascending edge index, drawing
// all scratch from ws so repeated sorts allocate nothing.
//
// Precondition: idx is ascending.  The sort is a stable LSD radix sort on
// orderKey, so ties keep their input order — which is then ascending
// index.  Every caller passes an adjacency list or range filtered in
// order, which is ascending.
//
// NaN weights are out of scope: scored weights are bounded, and the
// comparison order this kernel reproduces is undefined for NaN.
//
// Below radixCutoff a comparison sort orders idx by the same key, breaking
// ties on the index itself.  Above it, one pass computes the keys and
// radixSortByKey orders idx by them.
func sortEdgesByWeightWS(wt []float64, idx []int32, ws *Workspace) {
	n := len(idx)
	if n < 2 {
		return
	}
	if n < radixCutoff {
		slices.SortFunc(idx, func(a, b int32) int {
			if c := cmp.Compare(orderKey(wt[a]), orderKey(wt[b])); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		return
	}

	ws.keys = grow(ws.keys, 2*n)
	ws.orderTmp = grow(ws.orderTmp, n)
	keys := ws.keys[:n]
	for k, ei := range idx {
		keys[k] = orderKey(wt[ei])
	}
	radixSortByKey(keys, ws.keys[n:2*n], idx, ws.orderTmp[:n], &ws.radixHist)
}

// radixSortByKey is the radix passes of the ordering kernel: it stably
// sorts idx by ascending key, where keys[k] is the key of idx[k].  keysTmp
// and idxTmp are scratch of the same length; keys and keysTmp are
// clobbered.  All eight byte histograms are built in one pass into hist,
// passes whose byte is the same for every key are skipped, and the key and
// index buffers ping-pong between passes.
func radixSortByKey(keys, keysTmp []uint64, idx, idxTmp []int32, hist *[8][256]uint32) {
	n := len(idx)
	if n < 2 {
		return
	}
	src, dst := idx, idxTmp

	*hist = [8][256]uint32{}
	for _, key := range keys {
		hist[0][byte(key)]++
		hist[1][byte(key>>8)]++
		hist[2][byte(key>>16)]++
		hist[3][byte(key>>24)]++
		hist[4][byte(key>>32)]++
		hist[5][byte(key>>40)]++
		hist[6][byte(key>>48)]++
		hist[7][byte(key>>56)]++
	}

	// A byte every key shares cannot reorder anything: drop its pass.
	var passes [8]uint
	np := 0
	for d := range hist {
		if hist[d][byte(keys[0]>>(8*d))] != uint32(n) {
			passes[np] = uint(d)
			np++
		}
	}
	for i, d := range passes[:np] {
		h := &hist[d]
		var sum uint32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		shift := 8 * d
		src = src[:n]
		if i == np-1 {
			// The last pass only places indices; its keys are never read.
			for k, key := range keys {
				b := byte(key >> shift)
				dst[h[b]] = src[k]
				h[b]++
			}
		} else {
			for k, key := range keys {
				b := byte(key >> shift)
				at := h[b]
				h[b]++
				keysTmp[at] = key
				dst[at] = src[k]
			}
			keys, keysTmp = keysTmp, keys
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}
