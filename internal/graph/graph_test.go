package graph

import (
	"math"
	"testing"
)

func buildSmall() *Bipartite {
	// 2 users, 3 items. u0-{i0,i1}, u1-{i1,i2}.
	g := NewBipartite(2, 3)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 1, 1)
	g.AddEdge(1, 2, 1)
	return g
}

func TestDegrees(t *testing.T) {
	g := buildSmall()
	if g.UserDegree(0) != 2 || g.UserDegree(1) != 2 {
		t.Fatal("user degrees wrong")
	}
	if g.ItemDegree(0) != 1 || g.ItemDegree(1) != 2 || g.ItemDegree(2) != 1 {
		t.Fatal("item degrees wrong")
	}
	if g.NumEdges() != 4 || g.NumNodes() != 5 {
		t.Fatal("counts wrong")
	}
}

func TestNodeIndexing(t *testing.T) {
	g := buildSmall()
	if g.UserNode(1) != 1 || g.ItemNode(0) != 2 || g.ItemNode(2) != 4 {
		t.Fatal("node indexing wrong")
	}
}

func TestNormalizedAdjSymmetric(t *testing.T) {
	g := buildSmall()
	a := g.NormalizedAdj().Dense()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > 1e-12 {
				t.Fatalf("Â not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestNormalizedAdjValues(t *testing.T) {
	g := buildSmall()
	a := g.NormalizedAdj()
	// Edge u0-i1: deg(u0)=2, deg(i1)=2 -> 1/sqrt(4) = 0.5.
	if math.Abs(a.At(0, g.ItemNode(1))-0.5) > 1e-12 {
		t.Fatalf("Â[u0,i1] = %v, want 0.5", a.At(0, g.ItemNode(1)))
	}
	// Edge u0-i0: deg(u0)=2, deg(i0)=1 -> 1/sqrt(2).
	want := 1 / math.Sqrt(2)
	if math.Abs(a.At(0, g.ItemNode(0))-want) > 1e-12 {
		t.Fatalf("Â[u0,i0] = %v, want %v", a.At(0, g.ItemNode(0)), want)
	}
	// No user-user or item-item entries.
	if a.At(0, 1) != 0 || a.At(g.ItemNode(0), g.ItemNode(1)) != 0 {
		t.Fatal("Â has same-side entries")
	}
	// No self loops in the plain operator.
	if a.At(0, 0) != 0 {
		t.Fatal("Â has self loop")
	}
}

func TestNormalizedAdjSelfLoops(t *testing.T) {
	g := buildSmall()
	a := g.NormalizedAdjSelf()
	for i := 0; i < g.NumNodes(); i++ {
		if math.Abs(a.At(i, i)-1) > 1e-12 {
			t.Fatalf("Â+I diagonal at %d = %v", i, a.At(i, i))
		}
	}
	// Off-diagonal structure unchanged.
	if math.Abs(a.At(0, g.ItemNode(1))-0.5) > 1e-12 {
		t.Fatal("Â+I off-diagonal wrong")
	}
}

func TestWeightedEdges(t *testing.T) {
	g := NewBipartite(1, 1)
	g.AddEdge(0, 0, 0.5)
	a := g.NormalizedAdj()
	// deg(u)=0.5, deg(i)=0.5 -> 0.5/sqrt(0.25) = 1.
	if math.Abs(a.At(0, 1)-1) > 1e-12 {
		t.Fatalf("weighted Â = %v, want 1", a.At(0, 1))
	}
}

func TestDuplicateEdgesAccumulate(t *testing.T) {
	g := NewBipartite(1, 1)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 0, 1)
	if g.UserDegree(0) != 2 {
		t.Fatal("duplicate edge did not accumulate degree")
	}
	a := g.NormalizedAdj()
	// Both triplets sum: 2 edges of w=1/sqrt(4) each = 1.
	if math.Abs(a.At(0, 1)-1) > 1e-12 {
		t.Fatalf("duplicate edges Â = %v", a.At(0, 1))
	}
}

func TestIsolatedNodesEmptyRows(t *testing.T) {
	g := NewBipartite(2, 2)
	g.AddEdge(0, 0, 1)
	g.AddEdge(1, 1, 0)
	a := g.NormalizedAdj()
	// user 1 and item 1 are isolated (their one edge weighs 0, so both
	// degrees are 0 and the edge is skipped): their rows are empty.
	if a.RowNNZ(1) != 0 || a.RowNNZ(g.ItemNode(1)) != 0 {
		t.Fatal("isolated node has entries")
	}
}

func TestPropagationMixesNeighbors(t *testing.T) {
	// One propagation step from a one-hot signal reaches exactly neighbors.
	g := buildSmall()
	a := g.NormalizedAdj()
	x := make([]float64, g.NumNodes())
	x[g.ItemNode(1)] = 1 // signal at item 1
	// y = Â x: users 0 and 1 both connect to item 1.
	y := make([]float64, g.NumNodes())
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			y[i] += a.Val[p] * x[a.ColIdx[p]]
		}
	}
	if y[0] <= 0 || y[1] <= 0 {
		t.Fatal("signal did not reach item 1's neighbors")
	}
	if y[g.ItemNode(0)] != 0 || y[g.ItemNode(2)] != 0 {
		t.Fatal("signal leaked to non-neighbors in one hop")
	}
}
