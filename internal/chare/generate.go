package chare

import (
	"math/rand"
	"sort"
)

// RandomCHARE generates a random sequential expression with n factors whose
// types are drawn uniformly from allowed, over the given alphabet. It is
// used by the complexity benchmarks that replay the landscape of
// Theorems 4.4 and 4.5 per fragment.
func RandomCHARE(r *rand.Rand, alphabet []string, n int, allowed ...FactorType) *CHARE {
	if len(allowed) == 0 {
		allowed = []FactorType{TypeA, TypeAQuestion, TypeAStar, TypeAPlus,
			TypeDisj, TypeDisjQuestion, TypeDisjStar, TypeDisjPlus}
	}
	c := &CHARE{Factors: make([]Factor, n)}
	for i := 0; i < n; i++ {
		t := allowed[r.Intn(len(allowed))]
		var syms []string
		if t >= TypeDisj {
			k := 2 + r.Intn(len(alphabet)-1)
			perm := r.Perm(len(alphabet))
			for _, p := range perm[:k] {
				syms = append(syms, alphabet[p])
			}
			sort.Strings(syms)
		} else {
			syms = []string{alphabet[r.Intn(len(alphabet))]}
		}
		mod := One
		switch t {
		case TypeAQuestion, TypeDisjQuestion:
			mod = Question
		case TypeAStar, TypeDisjStar:
			mod = Star
		case TypeAPlus, TypeDisjPlus:
			mod = Plus
		}
		c.Factors[i] = Factor{Symbols: syms, Mod: mod}
	}
	return c
}
