package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
)

// greedyOracle is edge-greedy the direct way: order every edge with the
// sort.Sort oracle, then scan the full order taking whatever fits.  It
// returns the selection and the residual capacities.
func greedyOracle(p *Problem, kind WeightKind) (sel, capW, capT []int) {
	order := identity32(len(p.Edges))
	sortEdgesByWeight(p, kind, order)
	capW, capT = p.CapacityW(), p.CapacityT()
	for _, ei := range order {
		e := &p.Edges[ei]
		if capW[e.W] > 0 && capT[e.T] > 0 {
			capW[e.W]--
			capT[e.T]--
			sel = append(sel, int(ei))
		}
	}
	return sel, capW, capT
}

// checkGreedyMatchesOracle runs greedyInto through ws and fails unless its
// selection (in order) and residual capacities equal the oracle's.
func checkGreedyMatchesOracle(t testing.TB, p *Problem, kind WeightKind, ws *Workspace) {
	t.Helper()
	wantSel, wantW, wantT := greedyOracle(p, kind)
	gotSel := greedyInto(p, kind, ws)
	if !slices.Equal(gotSel, wantSel) {
		k := 0
		for k < len(gotSel) && k < len(wantSel) && gotSel[k] == wantSel[k] {
			k++
		}
		t.Fatalf("kind %v, %d edges: selections diverge at position %d of %d (oracle has %d)",
			kind, len(p.Edges), k, len(gotSel), len(wantSel))
	}
	if !slices.Equal(ws.capW, wantW) || !slices.Equal(ws.capT, wantT) {
		t.Fatalf("kind %v, %d edges: residual capacities differ from the oracle's", kind, len(p.Edges))
	}
}

// capacityProblem is a Problem over nW workers and nT tasks with the given
// capacities, carrying one edge per weight: edge i joins worker ends[i][0]
// and task ends[i][1], and all three of its weights are wts[i].  It is
// enough for greedy, which reads nothing else.
func capacityProblem(capW, capT []int, ends [][2]int, wts []float64) *Problem {
	in := &market.Instance{Workers: make([]market.Worker, len(capW)), Tasks: make([]market.Task, len(capT))}
	for i, c := range capW {
		in.Workers[i].Capacity = c
	}
	for j, c := range capT {
		in.Tasks[j].Replication = c
	}
	p := weightProblem(wts)
	p.In = in
	for i := range p.Edges {
		p.Edges[i].W, p.Edges[i].T = ends[i][0], ends[i][1]
	}
	return p
}

// unsaturated returns a copy of in with every capacity and replication
// raised to edges, so greedy takes every edge and never skips a bucket.
func unsaturated(in *market.Instance, edges int) *market.Instance {
	out := *in
	out.Workers = slices.Clone(in.Workers)
	out.Tasks = slices.Clone(in.Tasks)
	for i := range out.Workers {
		out.Workers[i].Capacity = edges
	}
	for j := range out.Tasks {
		out.Tasks[j].Replication = edges
	}
	return &out
}

func TestGreedyMatchesFullOrderOracle(t *testing.T) {
	ws := NewWorkspace()
	t.Run("generated", func(t *testing.T) {
		sizes := []struct {
			name string
			cfg  market.Config
		}{
			{"freelance-small", market.FreelanceTraceConfig(30, 20)},
			{"freelance", market.FreelanceTraceConfig(120, 90)},
			{"freelance-large", market.FreelanceTraceConfig(400, 300)},
			{"microtask", market.MicrotaskTraceConfig(200, 150)},
			{"uniform", market.UniformConfig(160, 120)},
			{"zipf", market.ZipfConfig(160, 120, 1.1)},
		}
		for _, sz := range sizes {
			for seed := uint64(1); seed <= 3; seed++ {
				in := market.MustGenerate(sz.cfg, seed)
				p := MustNewProblem(in, benefit.DefaultParams())
				free := MustNewProblem(unsaturated(in, len(p.Edges)), benefit.DefaultParams())
				for _, kind := range allWeightKinds {
					checkGreedyMatchesOracle(t, p, kind, ws)
					checkGreedyMatchesOracle(t, free, kind, ws)
					if len(greedyInto(free, kind, ws)) != len(free.Edges) {
						t.Fatalf("%s seed %d: unsaturated greedy left edges behind", sz.name, seed)
					}
				}
			}
		}
	})

	// Hand-built weights hit the bucketing corners: one bucket for
	// everything, ±0 and subnormals around the key midpoint, and a huge
	// outlier that squeezes almost every edge into a single bucket.  Each
	// pattern is tiled across a small market, once with tight capacities
	// and once with capacities that never saturate.
	sub := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	patterns := []struct {
		name    string
		wts     []float64
		outlier bool // put one 1e300 in the middle of the tiling
	}{
		{"all-equal", []float64{0.5}, false},
		{"mixed-zero", []float64{0, negZero, 0, negZero, negZero, 0}, false},
		{"negatives", []float64{-1, -0.5, -1e-300, -2, -1, 3, -0.25}, false},
		{"subnormals", []float64{sub, -sub, 2 * sub, sub, 0, negZero, -2 * sub, sub * 1e10}, false},
		{"huge-outlier", []float64{0.1, 0.2, 0.3, 0.25, 0.15, 0.35, 0.05}, true},
		{"infinities", []float64{math.Inf(1), math.Inf(-1), 0, math.Inf(1), 1, -1}, false},
	}
	const nW, nT = 13, 11
	t.Run("hand-built", func(t *testing.T) {
		for _, pat := range patterns {
			for _, n := range []int{0, 1, 2, 17, radixCutoff + 1, 4*radixCutoff + 3} {
				wts := make([]float64, n)
				ends := make([][2]int, n)
				for i := range wts {
					wts[i] = pat.wts[(i*5+i/len(pat.wts))%len(pat.wts)]
					ends[i] = [2]int{i % nW, (i*7 + i/nW) % nT}
				}
				if pat.outlier && n > 0 {
					wts[n/2] = 1e300
				}
				tight := capacityProblem(seq(nW, 1, 3), seq(nT, 2, 4), ends, wts)
				loose := capacityProblem(seq(nW, n, 1), seq(nT, n, 1), ends, wts)
				t.Run(fmt.Sprintf("%s/n=%d", pat.name, n), func(t *testing.T) {
					checkGreedyMatchesOracle(t, tight, MutualWeight, ws)
					checkGreedyMatchesOracle(t, loose, MutualWeight, ws)
				})
			}
		}
	})
}

// seq returns n capacities base, base+1, …, base+span-1 repeating.
func seq(n, base, span int) []int {
	caps := make([]int, n)
	for i := range caps {
		caps[i] = base + i%span
	}
	return caps
}

// FuzzGreedyOracle decodes a small market from the input — worker and task
// counts, their capacities (zero included), then 9-byte edges of one
// endpoint byte and a little-endian float64 weight (NaN skipped) — and
// holds greedyInto to the full-order oracle, with the decoded capacities
// and with capacities that never saturate.
func FuzzGreedyOracle(f *testing.F) {
	edge := func(b byte, w float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{b}, math.Float64bits(w))
	}
	seed := func(head []byte, edges ...[]byte) []byte {
		out := slices.Clone(head)
		for _, e := range edges {
			out = append(out, e...)
		}
		return out
	}
	f.Add([]byte{})
	f.Add(seed([]byte{1, 1, 1, 1, 1, 1}, edge(0, 1), edge(1, 1), edge(2, 1)))
	f.Add(seed([]byte{2, 1, 0, 2, 1, 3, 1, 2}, edge(0, 0), edge(3, math.Copysign(0, -1)), edge(5, -1),
		edge(7, math.Inf(1)), edge(9, 1e300), edge(11, math.SmallestNonzeroFloat64)))
	var many [][]byte
	for i := 0; i < radixCutoff; i++ {
		many = append(many, edge(byte(i), 0.5), edge(byte(i*3), float64(i)/7))
	}
	f.Add(seed([]byte{3, 3, 1, 1, 1, 1, 1, 1, 1, 1}, many...))
	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nW, nT := 1+int(data[0]%8), 1+int(data[1]%8)
		data = data[2:]
		if len(data) < nW+nT {
			return
		}
		capW, capT := make([]int, nW), make([]int, nT)
		for i := range capW {
			capW[i] = int(data[i] % 4)
		}
		for j := range capT {
			capT[j] = int(data[nW+j] % 4)
		}
		data = data[nW+nT:]
		var wts []float64
		var ends [][2]int
		for ; len(data) >= 9; data = data[9:] {
			w := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
			if math.IsNaN(w) {
				continue
			}
			wts = append(wts, w)
			ends = append(ends, [2]int{int(data[0]) % nW, int(data[0]) / nW % nT})
		}
		// Short inputs never reach the kernel's radix path; repeat them
		// past the cutoff so it is fuzzed too.
		n := len(wts)
		for n > 0 && len(wts) <= radixCutoff {
			wts = append(wts, wts[:n]...)
			ends = append(ends, ends[:n]...)
		}
		for _, m := range []int{n, len(wts)} {
			checkGreedyMatchesOracle(t, capacityProblem(capW, capT, ends[:m], wts[:m]), MutualWeight, ws)
			free := capacityProblem(seq(nW, m, 1), seq(nT, m, 1), ends[:m], wts[:m])
			checkGreedyMatchesOracle(t, free, MutualWeight, ws)
		}
	})
}
