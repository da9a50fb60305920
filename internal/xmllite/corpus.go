package xmllite

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/tree"
)

// Figure1XML is the XML document of Figure 1a (persons with name and
// birthplace), used by the quickstart example and tests.
const Figure1XML = `<?xml version="1.0"?>
<persons>
  <person pers_id="1">
    <name>Aretha</name>
    <birthplace>
      <city>Memphis</city>
      <state>Tennessee</state>
      <country>United States</country>
    </birthplace>
  </person>
  <person pers_id="2">
    <name>Johann Sebastian</name>
    <birthplace>
      <city>Eisenach</city>
      <state>Thuringia</state>
    </birthplace>
  </person>
</persons>`

// CorpusGen generates a synthetic XML corpus replaying the Grijzenhout &
// Marx study (Section 3.1): a configurable fraction of documents is
// well-formed; the rest carry an injected fault drawn from the study's
// category distribution.
type CorpusGen struct {
	// WellFormedRate is the fraction of well-formed documents (the study
	// measured 85%).
	WellFormedRate float64
	// Faults is the distribution over fault categories for the non-well-
	// formed documents. Defaults to the study's reported shape: the top
	// three categories carry 79.9% of all errors.
	Faults []FaultWeight
	// MaxDepth and MaxFanout bound the generated element trees.
	MaxDepth, MaxFanout int
}

// FaultWeight pairs an error category with its relative weight.
type FaultWeight struct {
	Category ErrorCategory
	Weight   float64
}

// DefaultCorpusGen returns a generator calibrated to the study's numbers:
// 85% well-formed; among errors, tag mismatch / premature end / bad UTF-8
// jointly at 79.9%, and six further categories filling up to 99%.
func DefaultCorpusGen() *CorpusGen {
	return &CorpusGen{
		WellFormedRate: 0.85,
		Faults: []FaultWeight{
			{ErrTagMismatch, 38.0},
			{ErrPrematureEnd, 24.0},
			{ErrBadUTF8, 17.9},
			{ErrBadEntity, 6.0},
			{ErrBadAttribute, 4.5},
			{ErrStrayLT, 3.6},
			{ErrDuplicateAttr, 2.0},
			{ErrMultipleRoots, 2.0},
			{ErrBadName, 1.0},
			{ErrEmptyDocument, 1.0},
		},
		MaxDepth:  5,
		MaxFanout: 4,
	}
}

var elementNames = []string{
	"persons", "person", "name", "birthplace", "city", "state", "country",
	"item", "record", "entry", "data", "list", "title", "author", "year",
}

// Document generates one document (well-formed or faulty per the rates).
func (g *CorpusGen) Document(r *rand.Rand) string {
	doc := g.wellFormed(r)
	if r.Float64() < g.WellFormedRate {
		return doc
	}
	return g.injectFault(r, doc)
}

func (g *CorpusGen) wellFormed(r *rand.Rand) string {
	t := g.randomTree(r, g.MaxDepth)
	var b strings.Builder
	b.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n")
	g.renderRich(&b, r, t)
	return b.String()
}

func (g *CorpusGen) randomTree(r *rand.Rand, depth int) *tree.Node {
	n := tree.New(elementNames[r.Intn(len(elementNames))])
	if depth <= 1 {
		return n
	}
	for i := 0; i < r.Intn(g.MaxFanout+1); i++ {
		n.Add(g.randomTree(r, depth-1))
	}
	return n
}

func (g *CorpusGen) renderRich(b *strings.Builder, r *rand.Rand, n *tree.Node) {
	fmt.Fprintf(b, "<%s", n.Label)
	if r.Float64() < 0.4 {
		fmt.Fprintf(b, " id=\"%d\"", r.Intn(1000))
	}
	if len(n.Children) == 0 && r.Float64() < 0.5 {
		b.WriteString("/>")
		return
	}
	b.WriteString(">")
	if len(n.Children) == 0 {
		b.WriteString("text &amp; more")
	}
	for _, c := range n.Children {
		g.renderRich(b, r, c)
	}
	fmt.Fprintf(b, "</%s>", n.Label)
}

// injectFault corrupts a well-formed document so that its first
// well-formedness violation falls in the drawn category.
func (g *CorpusGen) injectFault(r *rand.Rand, doc string) string {
	total := 0.0
	for _, f := range g.Faults {
		total += f.Weight
	}
	x := r.Float64() * total
	var cat ErrorCategory
	for _, f := range g.Faults {
		x -= f.Weight
		if x <= 0 {
			cat = f.Category
			break
		}
	}
	switch cat {
	case ErrTagMismatch:
		// rename the last end tag
		i := strings.LastIndex(doc, "</")
		if i < 0 {
			return "<a></b>"
		}
		j := strings.Index(doc[i:], ">")
		return doc[:i] + "</zz_mismatch" + doc[i+j:]
	case ErrPrematureEnd:
		// truncate inside a tag
		i := strings.LastIndex(doc, "<")
		if i < 1 {
			return "<a"
		}
		return doc[:i+2]
	case ErrBadUTF8:
		return doc + "\xff\xfe\x80"
	case ErrBadEntity:
		i := strings.LastIndex(doc, "</")
		if i < 0 {
			return "<a>&nosuch;</a>"
		}
		return doc[:i] + "& raw ampersand" + doc[i:]
	case ErrBadAttribute:
		i := strings.Index(doc, "<"+firstElementName(doc))
		if i < 0 {
			return "<a attr=unquoted></a>"
		}
		j := i + 1 + len(firstElementName(doc))
		return doc[:j] + " attr=unquoted" + doc[j:]
	case ErrStrayLT:
		i := strings.LastIndex(doc, "</")
		if i < 0 {
			return "<a> 1 < 2 </a>"
		}
		return doc[:i] + "< stray" + doc[i:]
	case ErrDuplicateAttr:
		i := strings.Index(doc, "<"+firstElementName(doc))
		if i < 0 {
			return `<a x="1" x="2"></a>`
		}
		j := i + 1 + len(firstElementName(doc))
		return doc[:j] + ` dup="1" dup="2"` + doc[j:]
	case ErrMultipleRoots:
		return doc + "<extra/>"
	case ErrBadName:
		i := strings.Index(doc, "?>")
		if i < 0 {
			return "<1bad/>"
		}
		return doc[:i+2] + "<1bad/>" + doc[i+2:]
	case ErrEmptyDocument:
		return "<?xml version=\"1.0\"?>   "
	}
	return doc
}

func firstElementName(doc string) string {
	i := strings.Index(doc, "?>")
	if i < 0 {
		i = 0
	} else {
		i += 2
	}
	for i < len(doc) {
		j := strings.IndexByte(doc[i:], '<')
		if j < 0 {
			return ""
		}
		i += j + 1
		if i < len(doc) && isNameStart(doc[i]) {
			k := i
			for k < len(doc) && isNameByte(doc[k]) {
				k++
			}
			return doc[i:k]
		}
	}
	return ""
}

// StudyResult aggregates a corpus well-formedness study in the shape of
// the Grijzenhout & Marx numbers quoted in Section 3.1.
type StudyResult struct {
	Total        int
	WellFormed   int
	ByCategory   map[ErrorCategory]int
	TopThreeRate float64 // fraction of all errors in the 3 largest categories
}

// WellFormedRate returns the fraction of well-formed documents.
func (s *StudyResult) WellFormedRate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.WellFormed) / float64(s.Total)
}

// Categories returns the error categories that occurred, by count
// descending and then by name, so printing them is deterministic.
func (s *StudyResult) Categories() []ErrorCategory {
	cats := make([]ErrorCategory, 0, len(s.ByCategory))
	for cat := range s.ByCategory {
		cats = append(cats, cat)
	}
	sort.Slice(cats, func(i, j int) bool {
		ni, nj := s.ByCategory[cats[i]], s.ByCategory[cats[j]]
		return ni > nj || ni == nj && cats[i].String() < cats[j].String()
	})
	return cats
}

// RunStudy classifies every document of the corpus.
func RunStudy(docs []string) *StudyResult {
	res := &StudyResult{ByCategory: map[ErrorCategory]int{}}
	for _, d := range docs {
		res.Total++
		cat := Check(d)
		if cat == ErrNone {
			res.WellFormed++
		} else {
			res.ByCategory[cat]++
		}
	}
	if errTotal := res.Total - res.WellFormed; errTotal > 0 {
		top := 0
		for i, cat := range res.Categories() {
			if i < 3 {
				top += res.ByCategory[cat]
			}
		}
		res.TopThreeRate = float64(top) / float64(errTotal)
	}
	return res
}
