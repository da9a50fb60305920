package regex

import "sort"

// Brzozowski derivatives. These provide a membership test that is independent
// of the Glushkov/automata pipeline and serves as an oracle in property-based
// tests: for every expression e and word w,
// automata.NewMatcher(e).Accepts(ctx, w) must agree with regex.Matches(e, w).

// Derivative returns an expression for a⁻¹L(e) = { w | a·w ∈ L(e) }.
// The result is built with the simplifying constructors to keep growth in
// check; it is used for membership testing, not for syntactic analysis.
func Derivative(e *Expr, a string) *Expr {
	switch e.Kind {
	case Empty, Epsilon:
		return NewEmpty()
	case Symbol:
		if e.Sym == a {
			return NewEpsilon()
		}
		return NewEmpty()
	case Union:
		subs := make([]*Expr, 0, len(e.Subs))
		for _, s := range e.Subs {
			d := Derivative(s, a)
			if d.Kind != Empty {
				subs = append(subs, d)
			}
		}
		return unionSimilar(subs)
	case Concat:
		// d(e1 e2 … en) = d(e1) e2…en  +  [e1 nullable] d(e2 e3…en) …
		var parts []*Expr
		for i, s := range e.Subs {
			d := Derivative(s, a)
			if d.Kind != Empty {
				rest := append([]*Expr{d}, e.Subs[i+1:]...)
				parts = append(parts, NewConcat(cloneAll(rest)...))
			}
			if !s.Nullable() {
				break
			}
		}
		return unionSimilar(parts)
	case Star:
		d := Derivative(e.Sub(), a)
		if d.Kind == Empty {
			return NewEmpty()
		}
		return NewConcat(d, NewStar(e.Sub().Clone()))
	case Plus:
		d := Derivative(e.Sub(), a)
		if d.Kind == Empty {
			return NewEmpty()
		}
		return NewConcat(d, NewStar(e.Sub().Clone()))
	case Opt:
		return Derivative(e.Sub(), a)
	}
	panic("regex: unknown kind")
}

// unionSimilar builds a union with syntactically duplicate alternatives
// removed — Brzozowski's similarity (ACI for union). Without it the
// derivative chains of nested iteration operators duplicate alternatives
// at every step and successive word derivatives grow exponentially;
// with it they stay polynomial (the differential oracle surfaced a
// 20-second membership test on a 16-symbol word, see
// TestMatchesDerivativeNoBlowup).
func unionSimilar(subs []*Expr) *Expr {
	u := NewUnion(subs...)
	if u.Kind != Union {
		return u
	}
	seen := make(map[string]bool, len(u.Subs))
	kept := make([]*Expr, 0, len(u.Subs))
	for _, s := range u.Subs {
		k := s.String()
		if !seen[k] {
			seen[k] = true
			kept = append(kept, s)
		}
	}
	if len(kept) == len(u.Subs) {
		return u
	}
	return NewUnion(kept...)
}

func cloneAll(es []*Expr) []*Expr {
	out := make([]*Expr, len(es))
	for i, e := range es {
		out[i] = e.Clone()
	}
	return out
}

// MatchesDerivative reports whether the word is in L(e), computed purely
// with Brzozowski derivatives. Derivatives can grow exponentially on
// adversarial inputs; use Matches for long words.
func MatchesDerivative(e *Expr, word []string) bool {
	cur := e
	for _, a := range word {
		cur = Derivative(cur, a)
		if cur.Kind == Empty {
			return false
		}
	}
	return cur.Nullable()
}

// Matches reports whether the word (a sequence of labels) is in L(e). It
// uses a memoized dynamic program over word positions — an implementation
// that is deliberately independent of the Glushkov/automata pipeline so that
// property-based tests can use it as an oracle. Complexity is
// O(|e| · |word|²).
func Matches(e *Expr, word []string) bool {
	m := &matcher{word: word, memo: map[matchKey][]int{}}
	for _, j := range m.endsFrom(e, 0) {
		if j == len(word) {
			return true
		}
	}
	return false
}

type matchKey struct {
	node *Expr
	i    int
}

type matcher struct {
	word []string
	memo map[matchKey][]int
}

// endsFrom returns the sorted set of positions j such that e matches
// word[i:j].
func (m *matcher) endsFrom(e *Expr, i int) []int {
	k := matchKey{e, i}
	if r, ok := m.memo[k]; ok {
		return r
	}
	// Seed the memo to break (harmless) cycles from degenerate recursions.
	m.memo[k] = nil
	var out []int
	switch e.Kind {
	case Empty:
	case Epsilon:
		out = []int{i}
	case Symbol:
		if i < len(m.word) && m.word[i] == e.Sym {
			out = []int{i + 1}
		}
	case Union:
		set := map[int]bool{}
		for _, s := range e.Subs {
			for _, j := range m.endsFrom(s, i) {
				set[j] = true
			}
		}
		out = sortedKeys(set)
	case Concat:
		cur := map[int]bool{i: true}
		for _, s := range e.Subs {
			next := map[int]bool{}
			for p := range cur {
				for _, j := range m.endsFrom(s, p) {
					next[j] = true
				}
			}
			cur = next
			if len(cur) == 0 {
				break
			}
		}
		out = sortedKeys(cur)
	case Star, Plus:
		sub := e.Sub()
		reached := map[int]bool{}
		frontier := []int{i}
		visited := map[int]bool{i: true}
		first := true
		for len(frontier) > 0 {
			var next []int
			for _, p := range frontier {
				for _, j := range m.endsFrom(sub, p) {
					reached[j] = true
					if !visited[j] {
						visited[j] = true
						next = append(next, j)
					}
				}
			}
			frontier = next
			first = false
		}
		_ = first
		if e.Kind == Star {
			reached[i] = true
		} else if e.Sub().Nullable() {
			reached[i] = true
		}
		out = sortedKeys(reached)
	case Opt:
		set := map[int]bool{i: true}
		for _, j := range m.endsFrom(e.Sub(), i) {
			set[j] = true
		}
		out = sortedKeys(set)
	default:
		panic("regex: unknown kind")
	}
	m.memo[k] = out
	return out
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for j := range set {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}
