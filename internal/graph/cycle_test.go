package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestCycleReachable(t *testing.T) {
	g := map[string][]string{
		"r": {"a", "b"},
		"a": {"c"},
		"b": {"c"}, // a diamond is not a cycle
		"c": nil,
		"x": {"y"},
		"y": {"x"}, // a cycle only x and y reach
		"s": {"s"},
	}
	succ := func(v string) []string { return g[v] }
	for _, c := range []struct {
		roots []string
		want  bool
	}{
		{nil, false},
		{[]string{"r"}, false},
		{[]string{"c", "b", "r"}, false},
		{[]string{"x"}, true},
		{[]string{"r", "y"}, true},
		{[]string{"s"}, true},
		{[]string{"unknown"}, false},
	} {
		if got := CycleReachable(c.roots, succ); got != c.want {
			t.Errorf("CycleReachable(%v) = %v, want %v", c.roots, got, c.want)
		}
	}
}

// TestCycleReachableMatchesSelfReach compares the search with the
// definition on 2,000 random digraphs: a cycle is reachable from the
// roots iff some vertex they reach reaches itself.
func TestCycleReachableMatchesSelfReach(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(8)
		g := make([][]int, n)
		for e := r.Intn(2 * n); e > 0; e-- {
			u := r.Intn(n)
			g[u] = append(g[u], r.Intn(n))
		}
		reach := func(from int) []bool {
			seen := make([]bool, n)
			stack := append([]int(nil), g[from]...)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !seen[x] {
					seen[x] = true
					stack = append(stack, g[x]...)
				}
			}
			return seen
		}
		roots := []int{r.Intn(n)}
		want := false
		fromRoot := reach(roots[0])
		fromRoot[roots[0]] = true
		for v, ok := range fromRoot {
			if ok && reach(v)[v] {
				want = true
			}
		}
		if got := CycleReachable(roots, func(v int) []int { return g[v] }); got != want {
			t.Fatalf("%s from %v: got %v, want %v", fmt.Sprint(g), roots, got, want)
		}
	}
}

// TestCycleReachableDeep runs the search down a path of a million
// vertices, which a recursive search would take as deep.
func TestCycleReachableDeep(t *testing.T) {
	const n = 1 << 20
	succ := func(v int) []int {
		if v+1 < n {
			return []int{v + 1}
		}
		return []int{n / 2}
	}
	if !CycleReachable([]int{0}, succ) {
		t.Error("missed the cycle at the end of the path")
	}
}
