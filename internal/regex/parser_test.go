package regex

import (
	"math/rand"
	"strings"
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

// TestParseIntoAllocs checks that a warm Slabs holds a decide-cold
// side whole: parsing the pair, each side into its own Slabs, allocates
// nothing once the slabs have grown to the pair's sizes.
func TestParseIntoAllocs(t *testing.T) {
	left, right := decideColdPair()
	var sl [2]Slabs
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseInto(left, &sl[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseInto(right, &sl[1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("parsing the decide-cold pair into warm slabs allocated %.0f times, want 0", allocs)
	}
}

// TestParseIntoReusedSlabs parses a corpus into one Slabs, cleared or
// dirty from the input before, and requires the trees Parse builds.
func TestParseIntoReusedSlabs(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	g := DefaultGen([]string{"a", "b", "c", "d"})
	var sl Slabs
	for i := 0; i < 2000; i++ {
		g.MaxDepth = 1 + i%9
		src := g.Random(r).String()
		if i%3 == 0 {
			sl.Clear()
		}
		got, err := ParseInto(src, &sl)
		if err != nil {
			t.Fatalf("ParseInto(%q): %v", src, err)
		}
		if want := MustParse(src); !got.Equal(want) || got.String() != src {
			t.Fatalf("ParseInto(%q) = %q, Parse = %q", src, got, want)
		}
	}
}

// TestSlabsClear parses groups of inputs into one Slabs and checks
// that Clear then leaves both slabs zero up to capacity: after a large
// tree and a small one, after parse errors, and after trees that
// outgrow the first node slab or the first child-list slab.
func TestSlabsClear(t *testing.T) {
	left, right := decideColdPair()
	wide := "(" + strings.Repeat("a | ", 600) + "a)" // one child list longer than a slab
	long := strings.Repeat("a (b | c)* ", 200)       // about 1,000 nodes
	groups := [][]string{
		{left, right, "a b"},
		{"a (b | c", left + " + (d", "a b <e"},
		{wide},
		{"a", long, "b"},
		{right},
	}
	var sl Slabs
	for _, group := range groups {
		for _, src := range group {
			ParseInto(src, &sl)
		}
		sl.Clear()
		for i, e := range sl.nodes[:cap(sl.nodes)] {
			if e.Kind != 0 || e.Sym != "" || e.Subs != nil {
				t.Fatalf("after %q: node %d = %+v", group, i, e)
			}
		}
		for i, e := range sl.ptrs[:cap(sl.ptrs)] {
			if e != nil {
				t.Fatalf("after %q: child-list entry %d of %d is set", group, i, cap(sl.ptrs))
			}
		}
		if sl.nNodes != 0 || sl.nPtrs != 0 {
			t.Fatalf("after %q: Clear left marks %d and %d", group, sl.nNodes, sl.nPtrs)
		}
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
