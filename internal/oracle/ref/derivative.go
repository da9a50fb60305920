package ref

import (
	"sort"

	"repro/internal/regex"
)

// Brzozowski derivatives and a memoized matcher: two membership tests
// that are independent of the Glushkov/automata pipeline. For every
// expression e and word w, automata.NewMatcher(e).Accepts(ctx, w) must
// agree with Matches(e, w) and MatchesDerivative(e, w).

// Derivative returns an expression for a⁻¹L(e) = { w | a·w ∈ L(e) }.
// The result is built with the simplifying constructors to keep growth in
// check; it is used for membership testing, not for syntactic analysis.
func Derivative(e *regex.Expr, a string) *regex.Expr {
	switch e.Kind {
	case regex.Empty, regex.Epsilon:
		return regex.NewEmpty()
	case regex.Symbol:
		if e.Sym == a {
			return regex.NewEpsilon()
		}
		return regex.NewEmpty()
	case regex.Union:
		subs := make([]*regex.Expr, 0, len(e.Subs))
		for _, s := range e.Subs {
			d := Derivative(s, a)
			if d.Kind != regex.Empty {
				subs = append(subs, d)
			}
		}
		return unionSimilar(subs)
	case regex.Concat:
		// d(e1 e2 … en) = d(e1) e2…en  +  [e1 nullable] d(e2 e3…en) …
		var parts []*regex.Expr
		for i, s := range e.Subs {
			d := Derivative(s, a)
			if d.Kind != regex.Empty {
				rest := append([]*regex.Expr{d}, e.Subs[i+1:]...)
				parts = append(parts, regex.NewConcat(cloneAll(rest)...))
			}
			if !s.Nullable() {
				break
			}
		}
		return unionSimilar(parts)
	case regex.Star, regex.Plus:
		d := Derivative(e.Sub(), a)
		if d.Kind == regex.Empty {
			return regex.NewEmpty()
		}
		return regex.NewConcat(d, regex.NewStar(e.Sub().Clone()))
	case regex.Opt:
		return Derivative(e.Sub(), a)
	}
	panic("ref: unknown kind")
}

// unionSimilar builds a union with syntactically duplicate alternatives
// removed — Brzozowski's similarity (ACI for union). Without it the
// derivative chains of nested iteration operators duplicate alternatives
// at every step and successive word derivatives grow exponentially;
// with it they stay polynomial (the differential oracle surfaced a
// 20-second membership test on a 16-symbol word, see
// TestMatchesDerivativeNoBlowup).
func unionSimilar(subs []*regex.Expr) *regex.Expr {
	u := regex.NewUnion(subs...)
	if u.Kind != regex.Union {
		return u
	}
	seen := make(map[string]bool, len(u.Subs))
	kept := make([]*regex.Expr, 0, len(u.Subs))
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
	return regex.NewUnion(kept...)
}

func cloneAll(es []*regex.Expr) []*regex.Expr {
	out := make([]*regex.Expr, len(es))
	for i, e := range es {
		out[i] = e.Clone()
	}
	return out
}

// MatchesDerivative reports whether the word is in L(e), computed purely
// with Brzozowski derivatives. Derivatives can grow exponentially on
// adversarial inputs; use Matches for long words.
func MatchesDerivative(e *regex.Expr, word []string) bool {
	cur := e
	for _, a := range word {
		cur = Derivative(cur, a)
		if cur.Kind == regex.Empty {
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
func Matches(e *regex.Expr, word []string) bool {
	m := &matcher{word: word, memo: map[matchKey][]int{}}
	for _, j := range m.endsFrom(e, 0) {
		if j == len(word) {
			return true
		}
	}
	return false
}

type matchKey struct {
	node *regex.Expr
	i    int
}

type matcher struct {
	word []string
	memo map[matchKey][]int
}

// endsFrom returns the sorted set of positions j such that e matches
// word[i:j].
func (m *matcher) endsFrom(e *regex.Expr, i int) []int {
	k := matchKey{e, i}
	if r, ok := m.memo[k]; ok {
		return r
	}
	// Seed the memo to break (harmless) cycles from degenerate recursions.
	m.memo[k] = nil
	var out []int
	switch e.Kind {
	case regex.Empty:
	case regex.Epsilon:
		out = []int{i}
	case regex.Symbol:
		if i < len(m.word) && m.word[i] == e.Sym {
			out = []int{i + 1}
		}
	case regex.Union:
		set := map[int]bool{}
		for _, s := range e.Subs {
			for _, j := range m.endsFrom(s, i) {
				set[j] = true
			}
		}
		out = sortedKeys(set)
	case regex.Concat:
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
	case regex.Star, regex.Plus:
		sub := e.Sub()
		reached := map[int]bool{}
		frontier := []int{i}
		visited := map[int]bool{i: true}
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
		}
		if e.Kind == regex.Star || sub.Nullable() {
			reached[i] = true
		}
		out = sortedKeys(reached)
	case regex.Opt:
		set := map[int]bool{i: true}
		for _, j := range m.endsFrom(e.Sub(), i) {
			set[j] = true
		}
		out = sortedKeys(set)
	default:
		panic("ref: unknown kind")
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
