package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
)

// edgeOrder is the comparison-sort oracle the radix kernel must reproduce:
// decreasing weight, ties (including −0 against +0) broken by ascending
// edge index.
type edgeOrder struct {
	idx []int32
	wt  []float64
}

func (o *edgeOrder) Len() int { return len(o.idx) }

func (o *edgeOrder) Less(a, b int) bool {
	if o.wt[a] != o.wt[b] {
		return o.wt[a] > o.wt[b]
	}
	return o.idx[a] < o.idx[b]
}

func (o *edgeOrder) Swap(a, b int) {
	o.idx[a], o.idx[b] = o.idx[b], o.idx[a]
	o.wt[a], o.wt[b] = o.wt[b], o.wt[a]
}

// sortEdgesByWeight is the oracle order of idx under kind.
func sortEdgesByWeight(p *Problem, kind WeightKind, idx []int32) {
	wt := make([]float64, len(idx))
	for k, ei := range idx {
		wt[k] = p.Edges[ei].Weight(kind)
	}
	sort.Sort(&edgeOrder{idx: idx, wt: wt})
}

// weightProblem is a Problem carrying only edges whose three weights are
// all wts[i] — enough for the ordering kernel, which reads nothing else.
func weightProblem(wts []float64) *Problem {
	p := &Problem{Edges: make([]EdgeInfo, len(wts))}
	for i, w := range wts {
		p.Edges[i] = EdgeInfo{Q: w, B: w, M: w}
	}
	return p
}

var allWeightKinds = []WeightKind{MutualWeight, QualityWeight, WorkerWeight}

// checkOrderMatchesOracle sorts idx with the radix kernel through ws and
// with the oracle, and fails on the first position they disagree.
func checkOrderMatchesOracle(t testing.TB, p *Problem, kind WeightKind, idx []int32, ws *Workspace) {
	t.Helper()
	got := slices.Clone(idx)
	want := slices.Clone(idx)
	sortEdgesByWeightWS(p, kind, got, ws)
	sortEdgesByWeight(p, kind, want)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("kind %v, n=%d: position %d has edge %d (w=%v), oracle has edge %d (w=%v)",
				kind, len(idx), k, got[k], p.Edges[got[k]].Weight(kind), want[k], p.Edges[want[k]].Weight(kind))
		}
	}
}

// identityOrderWS fills ws.order with the edge indices 0..n-1, reusing its
// buffer so allocation tests can refill the kernel's input for free.
func identityOrderWS(ws *Workspace, n int) []int32 {
	ws.order = growI32(ws.order, n)
	order := ws.order[:n]
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

func identity32(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

func TestEdgeOrderMatchesSortOracle(t *testing.T) {
	generators := []struct {
		name string
		cfg  market.Config
	}{
		{"freelance", market.FreelanceTraceConfig(120, 90)},
		{"microtask", market.MicrotaskTraceConfig(120, 90)},
		{"uniform", market.UniformConfig(120, 90)},
		{"zipf", market.ZipfConfig(120, 90, 1.1)},
	}
	ws := NewWorkspace()
	t.Run("generated", func(t *testing.T) {
		for _, g := range generators {
			for seed := uint64(1); seed <= 10; seed++ {
				p := MustNewProblem(market.MustGenerate(g.cfg, seed), benefit.DefaultParams())
				for _, kind := range allWeightKinds {
					checkOrderMatchesOracle(t, p, kind, identity32(len(p.Edges)), ws)
					// Non-identity ascending subsets, filtered in place
					// from CSR adjacency the way the online solvers do.
					for w := 0; w < p.In.NumWorkers(); w += 7 {
						checkOrderMatchesOracle(t, p, kind, filterAscending(p.AdjW(w), w), ws)
					}
					for tk := 0; tk < p.In.NumTasks(); tk += 5 {
						checkOrderMatchesOracle(t, p, kind, filterAscending(p.AdjT(tk), tk), ws)
					}
				}
			}
		}
	})

	// Hand-built weights hit every key corner.  Each pattern is tiled to
	// lengths on both sides of radixCutoff so both paths see it.
	sub := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	patterns := []struct {
		name string
		wts  []float64
	}{
		{"all-equal", []float64{0.5}},
		{"mixed-zero", []float64{0, negZero, 0, negZero, negZero, 0}},
		{"negatives", []float64{-1, -0.5, -1e-300, -2, -1, 3, -0.25}},
		{"subnormals", []float64{sub, -sub, 2 * sub, sub, 0, negZero, -2 * sub, sub * 1e10}},
		{"infinities", []float64{math.Inf(1), math.Inf(-1), 0, math.Inf(1), 1, -1, math.Inf(-1)}},
		{"max-float", []float64{math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, 1, math.Inf(1), math.Inf(-1), 0}},
		{"one-ulp", []float64{1, math.Nextafter(1, 2), math.Nextafter(1, 0), 1, math.Nextafter(1, 2)}},
	}
	t.Run("hand-built", func(t *testing.T) {
		for _, pat := range patterns {
			for _, n := range []int{0, 1, 2, 3, radixCutoff - 1, radixCutoff, radixCutoff + 1, 3*radixCutoff + 7} {
				wts := make([]float64, n)
				for i := range wts {
					// Vary the tiling stride so equal weights land at
					// scattered indices, not just in runs.
					wts[i] = pat.wts[(i*5+i/len(pat.wts))%len(pat.wts)]
				}
				p := weightProblem(wts)
				t.Run(fmt.Sprintf("%s/n=%d", pat.name, n), func(t *testing.T) {
					checkOrderMatchesOracle(t, p, MutualWeight, identity32(n), ws)
					if n > 4 {
						// An ascending subset with gaps, like a filtered
						// adjacency list.
						checkOrderMatchesOracle(t, p, MutualWeight, filterAscending(identity32(n), n), ws)
					}
				})
			}
		}
	})
}

// filterAscending returns a copy of adj without every third entry (offset
// by salt), still ascending — the shape the online solvers' in-place
// capacity filters produce.  The copy keeps the Problem's CSR intact.
func filterAscending(adj []int32, salt int) []int32 {
	out := slices.Clone(adj)[:0]
	for k, ei := range adj {
		if (k+salt)%3 != 0 {
			out = append(out, ei)
		}
	}
	return out
}

// FuzzEdgeOrder decodes the input as little-endian float64 weights (NaN
// skipped: the oracle's order is undefined for it) and holds the radix
// order to the oracle order.
func FuzzEdgeOrder(f *testing.F) {
	seed := func(ws ...float64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		return b
	}
	f.Add(seed())
	f.Add(seed(1, 1, 1))
	f.Add(seed(0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64))
	f.Add(make([]byte, 8*(radixCutoff+3)))
	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		var wts []float64
		for ; len(data) >= 8; data = data[8:] {
			w := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if !math.IsNaN(w) {
				wts = append(wts, w)
			}
		}
		// Short inputs only ever reach the comparison path; repeat them
		// past the cutoff so the radix passes are fuzzed too.
		n := len(wts)
		for n > 0 && len(wts) < radixCutoff+1 {
			wts = append(wts, wts[:n]...)
		}
		p := weightProblem(wts[:n])
		checkOrderMatchesOracle(t, p, MutualWeight, identity32(n), ws)
		p = weightProblem(wts)
		checkOrderMatchesOracle(t, p, MutualWeight, identity32(len(wts)), ws)
	})
}
