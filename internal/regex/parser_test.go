package regex

import (
	"math/rand"
	"strings"
	"testing"
	"time"
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

// TestNestingLimit checks Parse and ParseDTDContent at textio.MaxDepth
// and one level past it: nested parentheses, a postfix run, runs stacked
// across parenthesized levels, and a list above a full-height child.
// Parse must agree with refParse on each. The 3M-level inputs, which
// overflowed the stack of the parser or of NewMatcher before the limit,
// must be refused quickly.
func TestNestingLimit(t *testing.T) {
	nest := func(n int, inner, closer string) string {
		return strings.Repeat("(", n) + inner + strings.Repeat(")"+closer, n)
	}
	stars := func(n int) string { return strings.Repeat("*", n) }
	const limit = 1000 // textio.MaxDepth
	for _, c := range []struct {
		name     string
		src      func(n int) string
		dtd      bool // a DTD content model
		deepest  int  // the deepest n that parses
		tooDeep  int  // an n that is refused
		quickOne int  // a huge n that must be refused quickly, or 0
	}{
		{"parentheses", func(n int) string { return nest(n, "a", "") }, false, limit, limit + 1, 3_000_000},
		{"postfix run", func(n int) string { return "a" + stars(n) }, false, limit, limit + 1, 3_000_000},
		{"stacked runs", func(n int) string { return "(a" + stars(n) + ")" + stars(limit/2) }, false, limit / 2, limit/2 + 1, 0},
		{"run under a concatenation", func(n int) string { return "a" + stars(n) + " b" }, false, limit - 1, limit, 0},
		{"run under a union", func(n int) string { return "b | c a" + stars(n) }, false, limit - 2, limit - 1, 0},
		{"dtd parentheses", func(n int) string { return nest(n, "a", "") }, true, limit, limit + 1, 3_000_000},
		{"dtd stacked postfix", func(n int) string { return nest(n, "a", "*") }, true, limit, limit + 1, 0},
		// three levels per parenthesis: a union over a sequence over a
		// starred group, with the parentheses a third of the limit deep
		{"dtd lists", func(n int) string { return strings.Repeat("(b|b,", n) + "a" + strings.Repeat(")*", n) }, true, limit / 3, limit/3 + 1, 0},
	} {
		parse := func(src string) error {
			if c.dtd {
				_, err := ParseDTDContent(src, nil)
				return err
			}
			_, err := checkParseMatchesReference(t, src)
			return err
		}
		if err := parse(c.src(c.deepest)); err != nil {
			t.Errorf("%s: %d levels: %v", c.name, c.deepest, err)
		}
		if err := parse(c.src(c.tooDeep)); err == nil || !strings.Contains(err.Error(), "nesting deeper than 1000 levels") {
			t.Errorf("%s: %d levels: err = %v", c.name, c.tooDeep, err)
		}
		if c.quickOne > 0 {
			src := c.src(c.quickOne)
			start := time.Now()
			var err error
			if c.dtd {
				_, err = ParseDTDContent(src, nil)
			} else {
				_, err = Parse(src)
			}
			if err == nil || time.Since(start) > time.Second {
				t.Errorf("%s: %d levels: err = %v after %v", c.name, c.quickOne, err, time.Since(start))
			}
		}
	}
}
