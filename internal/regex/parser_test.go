package regex

import (
	"math/rand"
	"testing"
)

// decideColdPair returns two expression texts shaped like one
// decide-cold containment request: DefaultGen over a–d at MaxDepth 6.
func decideColdPair() (string, string) {
	g := DefaultGen([]string{"a", "b", "c", "d"})
	g.MaxDepth = 6
	r := rand.New(rand.NewSource(4242))
	return g.Random(r).String(), g.Random(r).String()
}

func BenchmarkParse(b *testing.B) {
	left, right := decideColdPair()
	b.SetBytes(int64(len(left) + len(right)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(left); err != nil {
			b.Fatal(err)
		}
		if _, err := Parse(right); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseAllocs pins the allocations of parsing the decide-cold pair.
// Nodes and child lists come from slabs and labels alias the input, so
// the count does not grow with the tree: it was 4 for both sides when
// pinned, where one allocation per node would be hundreds.
func TestParseAllocs(t *testing.T) {
	left, right := decideColdPair()
	allocs := testing.AllocsPerRun(100, func() {
		MustParse(left)
		MustParse(right)
	})
	t.Logf("%d + %d bytes: %.0f allocs", len(left), len(right), allocs)
	if allocs > 4 {
		t.Errorf("parsing the decide-cold pair allocated %.0f times, want at most 4", allocs)
	}
}

// TestParseChildListsAreCapped checks that appending to one node's
// child list copies it rather than overwriting its neighbour's list in
// the shared slab.
func TestParseChildListsAreCapped(t *testing.T) {
	e := MustParse("(a b) (c d)* e")
	first, second := e.Subs[0], e.Subs[1].Sub()
	first.Subs = append(first.Subs, NewSymbol("x"))
	if got := e.String(); got != "(a b x) (c d)* e" {
		t.Fatalf("after append: %q", got)
	}
	if got := second.String(); got != "c d" {
		t.Fatalf("append to one child list changed another: %q", got)
	}
}
