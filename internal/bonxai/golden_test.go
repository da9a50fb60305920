package bonxai

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/edtd"
	"repro/internal/regex"
	"repro/internal/schemastudy"
)

// goldenFromEDTDHash is the hash of TypeDependencyDepth and the FromEDTD
// rules over the seeded schemas of TestFromEDTDGolden. Both read the
// ancestor-context fixpoint of package edtd; this pin catches any change
// in what they compute from it.
const goldenFromEDTDHash = "b8b83ee9a99fd6feaf45c93db0be02cbd3dc236b9997e0a961bf4d73d218d7c5"

func TestFromEDTDGolden(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	xsd := schemastudy.DefaultXSDGen()
	h := sha256.New()
	for i := 0; i < 2000; i++ {
		var d *edtd.EDTD
		if i%4 == 0 {
			d = xsd.Schema(r)
		} else {
			d = randomSingleTypeEDTD(r)
		}
		k := d.TypeDependencyDepth(3)
		fmt.Fprintf(h, "%d|%d|", i, k)
		if s, ok := FromEDTD(d, 3); ok {
			fmt.Fprintf(h, "roots %v\n%s", s.Roots, s)
		} else {
			fmt.Fprintln(h, "rejected")
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFromEDTDHash {
		t.Errorf("FromEDTD outputs hash to %s, want %s", got, goldenFromEDTDHash)
	}
}

// randomSingleTypeEDTD returns an EDTD over the labels a–d with one or
// two types per label. Each rule picks one type per label, so the EDTD
// is single-type; rules may be unrealizable.
func randomSingleTypeEDTD(r *rand.Rand) *edtd.EDTD {
	labels := []string{"a", "b", "c", "d"}
	gen := regex.DefaultGen(labels)
	gen.MaxDepth = 3
	typesOf := map[string][]string{}
	for _, l := range labels {
		for j := 1 + r.Intn(2); j > 0; j-- {
			typesOf[l] = append(typesOf[l], fmt.Sprintf("%s%d", l, j))
		}
	}
	d := edtd.New()
	for _, l := range labels {
		for _, typ := range typesOf[l] {
			pick := map[string]string{}
			for _, m := range labels {
				pick[m] = typesOf[m][r.Intn(len(typesOf[m]))]
			}
			e := gen.Random(r)
			e.Walk(func(x *regex.Expr) {
				if x.Kind == regex.Symbol {
					x.Sym = pick[x.Sym]
				}
			})
			d.AddType(typ, l, e)
		}
	}
	return d.AddStart(typesOf["a"][r.Intn(len(typesOf["a"]))])
}
