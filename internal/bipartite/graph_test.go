package bipartite

import "testing"

func TestGraphBasics(t *testing.T) {
	g := NewGraph(3, 2)
	if g.NL() != 3 || g.NR() != 2 || g.NumEdges() != 0 {
		t.Fatal("empty graph wrong shape")
	}
	g.AddEdge(0, 0, 1.5)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(2, 1, 3.0)
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if g.DegreeL(0) != 2 || g.DegreeL(1) != 0 || g.DegreeL(2) != 1 {
		t.Fatal("left degrees wrong")
	}
	if g.DegreeR(0) != 1 || g.DegreeR(1) != 2 {
		t.Fatal("right degrees wrong")
	}
	if e := g.Edge(1); e.L != 0 || e.R != 1 || e.Weight != 2.5 {
		t.Fatalf("edge 1 = %+v", e)
	}
}

func TestGraphPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewGraph(-1, 1) did not panic")
			}
		}()
		NewGraph(-1, 1)
	}()
	g := NewGraph(1, 1)
	for _, pair := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%v) did not panic", pair)
				}
			}()
			g.AddEdge(pair[0], pair[1], 1)
		}()
	}
}
