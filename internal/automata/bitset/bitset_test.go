package bitset

import (
	"math/rand"
	"testing"
)

// modelSet is the map-backed reference model the StateSet operations
// are cross-checked against.
type modelSet map[int]bool

func randomPair(r *rand.Rand, n int) (StateSet, modelSet) {
	s, m := New(n), modelSet{}
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			s.Add(i)
			m[i] = true
		}
	}
	return s, m
}

// members lists s by Next, in the order Next visits them.
func members(s StateSet) []int {
	var out []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		out = append(out, i)
	}
	return out
}

// agree checks Has, Empty and Next iteration of s against the model.
func agree(t *testing.T, s StateSet, m modelSet, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if s.Has(i) != m[i] {
			t.Fatalf("%s: Has(%d) = %v, model = %v", what, i, s.Has(i), m[i])
		}
	}
	if s.Empty() != (len(m) == 0) {
		t.Fatalf("%s: Empty = %v, model has %d members", what, s.Empty(), len(m))
	}
	got := members(s)
	for j := 1; j < len(got); j++ {
		if got[j-1] >= got[j] {
			t.Fatalf("%s: Next out of order: %v", what, got)
		}
	}
	if len(got) != len(m) {
		t.Fatalf("%s: Next visited %d members, model has %d", what, len(got), len(m))
	}
	for _, i := range got {
		if !m[i] {
			t.Fatalf("%s: Next visited non-member %d", what, i)
		}
	}
	if s.Next(n) != -1 {
		t.Fatalf("%s: Next(%d) = %d past the universe", what, n, s.Next(n))
	}
}

// TestStateSetOpsAgainstModel drives union/and/subset/iterate on
// randomized universes (including word-boundary sizes) against the map
// model.
func TestStateSetOpsAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 63, 64, 65, 128, 200} {
		for trial := 0; trial < 200; trial++ {
			a, ma := randomPair(r, n)
			b, mb := randomPair(r, n)
			agree(t, a, ma, n, "a")
			agree(t, b, mb, n, "b")

			// subset / intersects / equal vs model
			wantSub := true
			for i := range ma {
				if !mb[i] {
					wantSub = false
				}
			}
			if a.SubsetOf(b) != wantSub {
				t.Fatalf("n=%d SubsetOf = %v, model = %v (a=%v b=%v)",
					n, a.SubsetOf(b), wantSub, members(a), members(b))
			}
			wantInter := false
			for i := range ma {
				if mb[i] {
					wantInter = true
				}
			}
			if a.Intersects(b) != wantInter {
				t.Fatalf("n=%d Intersects = %v, model = %v", n, a.Intersects(b), wantInter)
			}
			wantEq := len(ma) == len(mb) && wantSub
			if a.Equal(b) != wantEq {
				t.Fatalf("n=%d Equal = %v, model = %v", n, a.Equal(b), wantEq)
			}

			// union
			u, mu := New(n), modelSet{}
			u.UnionWith(a)
			u.UnionWith(b)
			for i := range ma {
				mu[i] = true
			}
			for i := range mb {
				mu[i] = true
			}
			agree(t, u, mu, n, "union")
			if !a.SubsetOf(u) || !b.SubsetOf(u) {
				t.Fatalf("n=%d union is not an upper bound", n)
			}

			// intersection, written over stale contents
			x, mx := u, modelSet{}
			nonempty := x.And(a, b)
			for i := range ma {
				if mb[i] {
					mx[i] = true
				}
			}
			agree(t, x, mx, n, "and")
			if nonempty != (len(mx) > 0) {
				t.Fatalf("n=%d And reported nonempty = %v, model has %d members", n, nonempty, len(mx))
			}
			if !x.SubsetOf(a) || !x.SubsetOf(b) {
				t.Fatalf("n=%d intersection is not a lower bound", n)
			}

			x.Clear()
			agree(t, x, modelSet{}, n, "clear")
		}
	}
}
