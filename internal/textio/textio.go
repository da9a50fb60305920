// Package textio provides the shared line-oriented input helpers used by
// the command-line tools (and anything else that reads one-item-per-line
// corpora): bounded line reading with a precise, line-numbered error when
// an input line exceeds the limit, instead of bufio.Scanner's bare
// "token too long"; and MaxDepth, the nesting limit the parsers of
// untrusted text share.
package textio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// DefaultMaxLineBytes is the per-line size limit of ReadLines. It is
// deliberately far above bufio.Scanner's 64 KiB default (and the 1 MiB cap
// the CLIs historically hard-coded): real query logs contain
// machine-generated lines of several MiB.
const DefaultMaxLineBytes = 16 << 20

// MaxDepth is the deepest nesting a parser of untrusted text accepts.
// The parsers and the passes over their trees recurse once per level, and
// Go ends a goroutine whose stack passes 1 GB with a fatal error that no
// recover can catch, so nesting past the limit is a parse error. Real
// inputs nest a few levels deep: DTD content models 1–9, log queries
// mostly 1–2 groups.
const MaxDepth = 1000

// LineTooLongError reports an input line exceeding the configured limit.
type LineTooLongError struct {
	Line  int // 1-based number of the offending line
	Limit int // the per-line byte limit that was exceeded
}

func (e *LineTooLongError) Error() string {
	return fmt.Sprintf("textio: line %d exceeds the %d-byte line limit", e.Line, e.Limit)
}

// ReadLines reads r to EOF and returns its non-empty lines, enforcing
// DefaultMaxLineBytes per line.
func ReadLines(r io.Reader) ([]string, error) {
	return ReadLinesLimit(r, DefaultMaxLineBytes)
}

// ReadLinesLimit is ReadLines with an explicit per-line byte limit
// (maxLine <= 0 means DefaultMaxLineBytes). Over-long input fails with a
// *LineTooLongError carrying the 1-based line number; lines read before
// the failure are returned alongside the error.
func ReadLinesLimit(r io.Reader, maxLine int) ([]string, error) {
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}
	sc := bufio.NewScanner(r)
	// the scanner's effective cap is max(cap(buf), maxLine), so the
	// initial buffer must not exceed the requested limit
	sc.Buffer(make([]byte, min(64*1024, maxLine)), maxLine)
	var out []string
	n := 0
	for sc.Scan() {
		n++
		if line := sc.Text(); line != "" {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return out, &LineTooLongError{Line: n + 1, Limit: maxLine}
		}
		return out, err
	}
	return out, nil
}
