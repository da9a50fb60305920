package recorder

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"time"
)

// Sort orders for Query.
const (
	SortRecent  = "recent"  // newest first (default)
	SortSlowest = "slowest" // longest duration first
)

// Query selects and orders traces: the parameter set of
// GET /v1/traces and of the rwdtrace filters. The zero value matches
// everything, newest first, capped at DefaultLimit.
type Query struct {
	// Op filters on the trace op (root span name with the "http."
	// prefix trimmed, e.g. "containment"); empty matches all.
	Op string
	// Status filters on the recorded HTTP status code ("200", "504");
	// empty matches all.
	Status string
	// MinMS keeps only traces at least this many milliseconds long.
	MinMS float64
	// Since keeps only traces that started within this window of now;
	// 0 means no time filter.
	Since time.Duration
	// Limit caps the result count; 0 means DefaultLimit, < 0 means
	// unlimited.
	Limit int
	// Sort is SortRecent (default) or SortSlowest.
	Sort string
}

// DefaultLimit is the result cap applied when a query names none.
const DefaultLimit = 50

// ParseQuery reads a Query from URL parameters (op, status, min_ms,
// since, limit, sort). since accepts a Go duration ("90s", "1h").
// Parameters that cannot mean anything are rejected rather than
// silently coerced: a negative or non-finite min_ms, a negative since,
// an explicit limit=0 (use a negative limit for "unlimited"), and
// conflicting repeated sort values all return an error the handler
// surfaces as a 400.
func ParseQuery(v url.Values) (Query, error) {
	q := Query{Op: v.Get("op"), Status: v.Get("status"), Sort: v.Get("sort")}
	if s := v.Get("min_ms"); s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return q, fmt.Errorf("min_ms: %v", err)
		}
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return q, fmt.Errorf("min_ms: %q (want a finite duration >= 0 in milliseconds)", s)
		}
		q.MinMS = f
	}
	if s := v.Get("since"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			return q, fmt.Errorf("since: %v (want a duration like 10m)", err)
		}
		if d < 0 {
			return q, fmt.Errorf("since: %q (want a duration >= 0)", s)
		}
		q.Since = d
	}
	if s := v.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			return q, fmt.Errorf("limit: %v", err)
		}
		if n == 0 {
			return q, fmt.Errorf("limit: 0 selects nothing (omit it for the default %d, or use a negative limit for unlimited)", DefaultLimit)
		}
		q.Limit = n
	}
	if sorts := v["sort"]; len(sorts) > 1 {
		for _, s := range sorts[1:] {
			if s != sorts[0] {
				return q, fmt.Errorf("sort: conflicting values %q and %q (pass sort at most once)", sorts[0], s)
			}
		}
	}
	switch q.Sort {
	case "", SortRecent, SortSlowest:
	default:
		return q, fmt.Errorf("sort: %q (want %s or %s)", q.Sort, SortRecent, SortSlowest)
	}
	return q, nil
}

// Values encodes q as the URL parameters ParseQuery reads, omitting zero
// fields, so that ParseQuery(q.Values()) returns q.
func (q Query) Values() url.Values {
	v := url.Values{}
	if q.Op != "" {
		v.Set("op", q.Op)
	}
	if q.Status != "" {
		v.Set("status", q.Status)
	}
	if q.MinMS != 0 {
		v.Set("min_ms", strconv.FormatFloat(q.MinMS, 'g', -1, 64))
	}
	if q.Since != 0 {
		v.Set("since", q.Since.String())
	}
	if q.Limit != 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Sort != "" {
		v.Set("sort", q.Sort)
	}
	return v
}

// Apply filters ts (oldest first, as Snapshot and ReadDir return) and
// returns the selected traces in query order.
func (q Query) Apply(ts []*Trace, now time.Time) []*Trace {
	var out []*Trace
	cutoff := time.Time{}
	if q.Since > 0 {
		cutoff = now.Add(-q.Since)
	}
	for _, t := range ts {
		if q.Op != "" && t.Op != q.Op {
			continue
		}
		if q.Status != "" && t.Status != q.Status {
			continue
		}
		if t.DurationMS < q.MinMS {
			continue
		}
		if !cutoff.IsZero() && t.Start.Before(cutoff) {
			continue
		}
		out = append(out, t)
	}
	if q.Sort == SortSlowest {
		sort.SliceStable(out, func(i, j int) bool { return out[i].DurationMS > out[j].DurationMS })
	} else {
		// newest first; input is oldest first, so reverse
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	limit := q.Limit
	if limit == 0 {
		limit = DefaultLimit
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
