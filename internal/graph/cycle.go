package graph

// CycleReachable reports whether a directed cycle can be reached from
// one of roots, where succ(v) lists the successors of v. The search is
// one iterative depth-first pass: a successor still on the current path
// closes a cycle, and no vertex is entered twice, so the cost is linear
// in the vertices and edges reached and no input deepens the Go stack.
// The recursion tests of the schema studies (Section 4.1 for DTDs,
// Section 4.5 for JSON Schema) share it.
func CycleReachable[V comparable](roots []V, succ func(V) []V) bool {
	const onPath, done = 1, 2
	state := map[V]uint8{}
	type frame struct {
		v    V
		next []V // successors of v not yet followed
	}
	var stack []frame
	enter := func(v V) {
		state[v] = onPath
		stack = append(stack, frame{v, succ(v)})
	}
	for _, r := range roots {
		if state[r] == 0 {
			enter(r)
		}
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if len(top.next) == 0 {
				state[top.v] = done
				stack = stack[:len(stack)-1]
				continue
			}
			w := top.next[0]
			top.next = top.next[1:]
			switch state[w] {
			case onPath:
				return true
			case 0:
				enter(w)
			}
		}
	}
	return false
}
