package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceIDFormat pins the hand-rolled hex rendering of TraceID to
// fmt's %016x: the header, the flight recorder and the access log all
// carry it, and trace lookups match on the exact text.
func TestTraceIDFormat(t *testing.T) {
	ids := []uint64{0, 1, 0xf, 0x10, 0xdeadbeef, math.MaxUint64}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		ids = append(ids, r.Uint64())
	}
	for _, id := range ids {
		if got, want := (&Span{traceID: id}).TraceID(), fmt.Sprintf("%016x", id); got != want {
			t.Fatalf("TraceID of %d = %q, want %q", id, got, want)
		}
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.Finish()
	s.SetAttr("k", "v")
	s.Count("n", 3)
	if c := s.Counter("n"); c != nil {
		t.Fatalf("nil span Counter = %v, want nil", c)
	}
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value != 0")
	}
	if s.Tree() != nil {
		t.Fatal("nil span Tree != nil")
	}
	if s.Name() != "" || s.TraceID() != "" || s.Duration() != 0 || s.Counters() != nil {
		t.Fatal("nil span accessors not zero")
	}
}

func TestStartSpanWithoutTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "x")
	if s != nil {
		t.Fatal("span without tracer should be nil")
	}
	if ctx2 != ctx {
		t.Fatal("context should be returned unchanged")
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on bare context should be nil")
	}
}

func TestSpanNestingAndCounters(t *testing.T) {
	tr := &Tracer{}
	ctx, root := tr.StartRoot(context.Background(), "root")
	root.SetAttr("engine", "regex")

	ctx2, child := StartSpan(ctx, "determinize")
	child.Counter("states_expanded").Add(42)
	_, grand := StartSpan(ctx2, "product")
	grand.Count("product_states", 7)
	grand.Finish()
	child.Finish()
	root.Finish()

	if got := child.Counters()["states_expanded"]; got != 42 {
		t.Fatalf("states_expanded = %d, want 42", got)
	}
	tree := root.Tree()
	if tree.Name != "root" || tree.TraceID == "" {
		t.Fatalf("bad root node: %+v", tree)
	}
	if tree.Attrs["engine"] != "regex" {
		t.Fatalf("attrs = %v", tree.Attrs)
	}
	if len(tree.Children) != 1 || tree.Children[0].Name != "determinize" {
		t.Fatalf("children = %+v", tree.Children)
	}
	if tree.Children[0].Counters["states_expanded"] != 42 {
		t.Fatalf("child counters = %v", tree.Children[0].Counters)
	}
	if tree.Children[0].Children[0].Counters["product_states"] != 7 {
		t.Fatalf("grandchild counters = %v", tree.Children[0].Children[0].Counters)
	}
	if tree.Children[0].TraceID != "" {
		t.Fatal("trace id should only render on the root")
	}

	// JSON round-trip: the explain payload shape.
	raw, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back Node
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Children[0].Counters["states_expanded"] != 42 {
		t.Fatalf("round-trip lost counters: %s", raw)
	}
}

func TestSpanConcurrentChildrenAndCounters(t *testing.T) {
	tr := &Tracer{}
	ctx, root := tr.StartRoot(context.Background(), "pipeline")
	c := root.Counter("queries")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, shard := StartSpan(ctx, "shard")
			for j := 0; j < 100; j++ {
				c.Inc()
				shard.Counter("ingested").Inc()
			}
			shard.Finish()
		}()
	}
	wg.Wait()
	root.Finish()
	if got := c.Value(); got != 1600 {
		t.Fatalf("queries = %d, want 1600", got)
	}
	tree := root.Tree()
	if len(tree.Children) != 16 {
		t.Fatalf("children = %d, want 16", len(tree.Children))
	}
	var sum int64
	for _, ch := range tree.Children {
		sum += ch.Counters["ingested"]
	}
	if sum != 1600 {
		t.Fatalf("shard counters sum = %d, want 1600", sum)
	}
}

func TestFinishIdempotentAndOnFinish(t *testing.T) {
	var finished []string
	tr := &Tracer{OnFinish: func(s *Span) { finished = append(finished, s.Name()) }}
	_, root := tr.StartRoot(context.Background(), "op")
	root.Finish()
	d := root.Duration()
	time.Sleep(time.Millisecond)
	root.Finish()
	if root.Duration() != d {
		t.Fatal("second Finish changed the duration")
	}
	if len(finished) != 1 || finished[0] != "op" {
		t.Fatalf("OnFinish calls = %v, want exactly one", finished)
	}
}

func TestWriteTree(t *testing.T) {
	tr := &Tracer{}
	ctx, root := tr.StartRoot(context.Background(), "containment")
	_, child := StartSpan(ctx, "determinize")
	child.Count("states_expanded", 5)
	child.Finish()
	root.SetAttr("engine", "regex")
	root.Finish()
	var buf bytes.Buffer
	if err := WriteTree(&buf, root.Tree()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"containment", "trace=", "  determinize", "states_expanded=5", `engine="regex"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree dump missing %q:\n%s", want, out)
		}
	}
	// DumpTree writes the same text to a file.
	dest := filepath.Join(t.TempDir(), "trace.txt")
	DumpTree(dest, root.Tree())
	if got, err := os.ReadFile(dest); err != nil || string(got) != out {
		t.Fatalf("DumpTree wrote %q, %v; want %q", got, err, out)
	}
}
