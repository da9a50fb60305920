package dtd

import (
	"fmt"

	"repro/internal/tree"
)

// Event is a SAX-style streaming event: an element opening or closing.
type Event struct {
	Open  bool
	Label string // empty for close events
}

// Events serializes a tree into its streaming event sequence (the document
// order of its tags).
func Events(t *tree.Node) []Event {
	var out []Event
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		out = append(out, Event{Open: true, Label: n.Label})
		for _, c := range n.Children {
			rec(c)
		}
		out = append(out, Event{Open: false})
	}
	rec(t)
	return out
}

// StreamValidator validates a stream of open/close events against a DTD.
// Each open element keeps the set of Glushkov states its children have
// reached so far, so its memory is bounded by the current element depth
// times the size of the content models, with no determinization; for
// non-recursive DTDs the depth — and hence the memory — is bounded by a
// constant depending only on the DTD, which is the constant-memory
// streaming validation regime of Segoufin & Vianu discussed in Section 4.1.
// (For recursive DTDs the stack can grow with the document.)
type StreamValidator struct {
	c     *Compiled // its matchers step the open elements' states
	stack []frame
	// HighWater is the maximum stack depth observed — the memory measure
	// reported by the streaming experiments.
	HighWater int
	started   bool
	done      bool
}

type frame struct {
	label  string
	states []int32
}

// NewStreamValidator returns a validator for d.
func NewStreamValidator(d *DTD) *StreamValidator {
	return &StreamValidator{c: d.Compile()}
}

// Feed consumes one event; a non-nil error means the stream is already
// known to be invalid (validation may stop).
func (v *StreamValidator) Feed(ev Event) error {
	if v.done {
		return fmt.Errorf("dtd: event after document end")
	}
	if ev.Open {
		if !v.started {
			v.started = true
			if !v.c.d.Start[ev.Label] {
				return fmt.Errorf("dtd: root label %q not in start labels", ev.Label)
			}
		} else {
			if len(v.stack) == 0 {
				return fmt.Errorf("dtd: second root element %q", ev.Label)
			}
			top := &v.stack[len(v.stack)-1]
			if top.states = v.c.matcher(top.label).Step(top.states, ev.Label); len(top.states) == 0 {
				return fmt.Errorf("dtd: child %q not allowed under %q here", ev.Label, top.label)
			}
		}
		v.stack = append(v.stack, frame{label: ev.Label, states: v.c.matcher(ev.Label).Start()})
		if len(v.stack) > v.HighWater {
			v.HighWater = len(v.stack)
		}
		return nil
	}
	if len(v.stack) == 0 {
		return fmt.Errorf("dtd: close event without open element")
	}
	top := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	if !v.c.matcher(top.label).AnyFinal(top.states) {
		return fmt.Errorf("dtd: element %q closed with incomplete content", top.label)
	}
	if len(v.stack) == 0 {
		v.done = true
	}
	return nil
}

// Close finishes validation; it errs when the document never completed.
func (v *StreamValidator) Close() error {
	if !v.done {
		return fmt.Errorf("dtd: incomplete document")
	}
	return nil
}

// ValidateStream validates a full event sequence.
func (d *DTD) ValidateStream(events []Event) error {
	v := NewStreamValidator(d)
	for _, ev := range events {
		if err := v.Feed(ev); err != nil {
			return err
		}
	}
	return v.Close()
}
