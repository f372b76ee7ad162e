package bipartite

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// Hungarian is the independent exact oracle the min-cost-flow tests compare
// against on unit-capacity instances: given an n×m cost matrix (n ≤ m), it
// finds a minimum-cost assignment of every row to a distinct column and
// returns rowMatch (rowMatch[i] = column assigned to row i) and the total
// cost.  It is the O(n²·m) shortest-augmenting-path variant of the Kuhn–
// Munkres algorithm with potentials (the "e-maxx" formulation).  It panics
// if n > m or the matrix is ragged.
func Hungarian(cost [][]float64) (rowMatch []int, total float64) {
	return hungarian(cost, 1)
}

// HungarianMax finds the assignment of rows to distinct columns maximising
// total weight.  Weights are negated on access — no negated copy of the
// matrix is built.
func HungarianMax(weight [][]float64) (rowMatch []int, total float64) {
	return hungarian(weight, -1)
}

// hungarian is the shared kernel: sign +1 minimises cost, sign -1 maximises
// (entries are sign-multiplied on access).  The returned total is always in
// the caller's original (un-negated) scale.
func hungarian(cost [][]float64, sign float64) (rowMatch []int, total float64) {
	n, m := checkCostMatrix(cost)
	if n == 0 {
		return nil, 0
	}

	// Potentials u (rows) and v (columns); p[j] = row matched to column j,
	// all 1-indexed internally with 0 as a virtual root.
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)
	way := make([]int, m+1)
	minv := make([]float64, m+1)
	used := make([]bool, m+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := -1
			row := cost[i0-1]
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := sign*row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		// Unwind the augmenting path.
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowMatch = make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] != 0 {
			rowMatch[p[j]-1] = j - 1
		}
	}
	for i, j := range rowMatch {
		total += cost[i][j]
	}
	return rowMatch, total
}

// checkCostMatrix validates an n×m cost matrix: rectangular, n ≤ m.  It
// panics otherwise and returns (n, m).
func checkCostMatrix(cost [][]float64) (n, m int) {
	n = len(cost)
	if n == 0 {
		return 0, 0
	}
	m = len(cost[0])
	for i, row := range cost {
		if len(row) != m {
			panic(fmt.Sprintf("bipartite: ragged cost matrix at row %d", i))
		}
	}
	if n > m {
		panic("bipartite: Hungarian requires rows <= columns")
	}
	return n, m
}

func TestHungarianKnownSquare(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	match, total := Hungarian(cost)
	// Optimal: row0→col1 (1), row1→col0 (2), row2→col2 (2) = 5.
	if total != 5 {
		t.Fatalf("total = %v, want 5 (match %v)", total, match)
	}
	checkAssignmentValid(t, match, 3)
}

func TestHungarianRectangular(t *testing.T) {
	cost := [][]float64{
		{10, 1, 10, 10},
		{10, 10, 2, 10},
	}
	match, total := Hungarian(cost)
	if total != 3 {
		t.Fatalf("total = %v, want 3", total)
	}
	if match[0] != 1 || match[1] != 2 {
		t.Fatalf("match = %v", match)
	}
}

func TestHungarianEmpty(t *testing.T) {
	match, total := Hungarian(nil)
	if match != nil || total != 0 {
		t.Fatal("empty problem should be trivial")
	}
}

func TestHungarianSingle(t *testing.T) {
	match, total := Hungarian([][]float64{{7}})
	if len(match) != 1 || match[0] != 0 || total != 7 {
		t.Fatalf("single: %v %v", match, total)
	}
}

func TestHungarianPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("rows > cols did not panic")
			}
		}()
		Hungarian([][]float64{{1}, {2}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ragged matrix did not panic")
			}
		}()
		Hungarian([][]float64{{1, 2}, {3}})
	}()
}

func TestHungarianMax(t *testing.T) {
	weight := [][]float64{
		{1, 5},
		{5, 1},
	}
	match, total := HungarianMax(weight)
	if total != 10 {
		t.Fatalf("max total = %v, want 10", total)
	}
	if match[0] != 1 || match[1] != 0 {
		t.Fatalf("match = %v", match)
	}
}

func TestHungarianNegativeCosts(t *testing.T) {
	cost := [][]float64{
		{-1, 4},
		{4, -1},
	}
	_, total := Hungarian(cost)
	if total != -2 {
		t.Fatalf("total = %v, want -2", total)
	}
}

// Brute-force assignment by permutation enumeration, for cross-checking.
func bruteAssign(cost [][]float64) float64 {
	n := len(cost)
	m := len(cost[0])
	best := math.Inf(1)
	used := make([]bool, m)
	var rec func(row int, acc float64)
	rec = func(row int, acc float64) {
		if row == n {
			if acc < best {
				best = acc
			}
			return
		}
		for c := 0; c < m; c++ {
			if !used[c] {
				used[c] = true
				rec(row+1, acc+cost[row][c])
				used[c] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(202)
	for trial := 0; trial < 50; trial++ {
		n := r.IntRange(1, 6)
		m := n + r.IntRange(0, 2)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = math.Round(r.Float64Range(-10, 10)*100) / 100
			}
		}
		_, got := Hungarian(cost)
		want := bruteAssign(cost)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Hungarian %v vs brute %v for %v", trial, got, want, cost)
		}
	}
}

func checkAssignmentValid(t *testing.T, match []int, m int) {
	t.Helper()
	used := map[int]bool{}
	for _, c := range match {
		if c < 0 || c >= m || used[c] {
			t.Fatalf("invalid assignment %v", match)
		}
		used[c] = true
	}
}
