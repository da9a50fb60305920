package tree

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	cases := []string{
		"a",
		"a(b)",
		"a(b, c)",
		"persons(person(name, birthplace(city, state, country)), person(name, birthplace(city, state)))",
	}
	for _, s := range cases {
		n, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := n.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	for _, bad := range []string{"", "(", "a(", "a(b", "a(b,)", "a)b", "a(b))", "a b"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestMetrics(t *testing.T) {
	n := MustParse("a(b(c, d), e)")
	if n.Size() != 5 {
		t.Errorf("Size = %d", n.Size())
	}
	if n.Depth() != 3 {
		t.Errorf("Depth = %d", n.Depth())
	}
	if got := strings.Join(n.ChildWord(), " "); got != "b e" {
		t.Errorf("ChildWord = %q", got)
	}
	labels := map[string]bool{}
	n.Walk(func(m *Node) { labels[m.Label] = true })
	if len(labels) != 5 || !labels["c"] {
		t.Errorf("Walk labels = %v", labels)
	}
}

func TestWalkPath(t *testing.T) {
	n := MustParse("a(b(c))")
	var paths []string
	n.WalkPath(func(m *Node, anc []string) {
		paths = append(paths, strings.Join(append(append([]string{}, anc...), m.Label), "/"))
	})
	want := []string{"a", "a/b", "a/b/c"}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v", paths)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Errorf("path %d = %q, want %q", i, paths[i], want[i])
		}
	}
}

func TestCloneEqual(t *testing.T) {
	n := MustParse("a(b(c, d), e)")
	c := n.Clone()
	if !n.Equal(c) {
		t.Error("clone not equal")
	}
	c.Children[0].Label = "x"
	if n.Equal(c) {
		t.Error("mutated clone still equal")
	}
	if n.Children[0].Label != "b" {
		t.Error("clone aliases original")
	}
}

func TestRoundTripQuick(t *testing.T) {
	// property: String ∘ Parse is the identity on rendered trees
	f := func(shape uint8, depth uint8) bool {
		n := buildTree(int(shape), int(depth)%4)
		s := n.String()
		m, err := Parse(s)
		return err == nil && m.Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func buildTree(shape, depth int) *Node {
	labels := []string{"a", "b", "c", "d"}
	n := New(labels[shape%len(labels)])
	if depth > 0 {
		for i := 0; i <= shape%3; i++ {
			n.Add(buildTree(shape/3+i, depth-1))
		}
	}
	return n
}
