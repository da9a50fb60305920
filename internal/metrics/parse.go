package metrics

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// ParseText reads a Prometheus text-format exposition (the output of
// Registry.WriteText or any /metrics endpoint) and returns a flat map of
// series — name plus label block, verbatim — to value. Comment lines
// (# HELP / # TYPE) and malformed lines are skipped. It is the read side
// of the package: the load generator and the tests scrape /metrics
// through it to compute before/after deltas.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// the value starts after the last space; labels may contain
		// spaces inside quoted values, so split from the right
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
