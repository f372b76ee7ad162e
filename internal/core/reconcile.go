package core

import "slices"

// PickEdge is one candidate assignment in an abstract dense bipartite index
// space — the currency of the platform's cross-shard reconciliation pass.
// W and T index caller-chosen capacity arrays (they need not be instance
// indices: the platform reconciler densifies only the contested workers
// and tasks), and Ref is an opaque caller handle carried through the sort
// so the winner set can be mapped back to whatever the picks came from
// (edge indices, pair slots, ...).
type PickEdge struct {
	W, T   int32
	Weight float64
	Ref    int32
}

// ReconcileTake is the keep-heaviest primitive behind optimistic sharding:
// it sorts picks in place by decreasing weight (ties broken by ascending
// Ref, so callers that assign unique Refs get a strict, deterministic total
// order), then greedily takes every pick whose endpoints still have
// capacity, decrementing capW/capT in place.  Taken picks are compacted to
// picks[:k] in take order and k is returned; picks[k:] hold the losers in
// unspecified order.
//
// Both halves of the reconcile pattern are this one primitive: resolving
// over-subscription (capW = true capacities, capT = slots up for grabs) and
// refilling freed slots (capW = residual capacities, capT = freed counts).
// It allocates nothing beyond sort internals.
func ReconcileTake(picks []PickEdge, capW, capT []int) int {
	slices.SortFunc(picks, func(a, b PickEdge) int {
		switch {
		case a.Weight > b.Weight:
			return -1
		case a.Weight < b.Weight:
			return 1
		case a.Ref < b.Ref:
			return -1
		case a.Ref > b.Ref:
			return 1
		default:
			return 0
		}
	})
	k := 0
	for i := range picks {
		e := picks[i]
		if capW[e.W] > 0 && capT[e.T] > 0 {
			capW[e.W]--
			capT[e.T]--
			// Swap rather than overwrite so picks stays a permutation:
			// the loser displaced from slot k survives in picks[k:].
			picks[i] = picks[k]
			picks[k] = e
			k++
		}
	}
	return k
}
