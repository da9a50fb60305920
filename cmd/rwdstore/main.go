// Command rwdstore manages a persistent corpus store (internal/store)
// from the command line: ingest triples or query logs, list corpora,
// print store statistics, compact segments, and verify on-disk
// integrity. The same directory can then be served by rwdserve
// (-store-dir) or analyzed offline by rwdanalyze.
//
// Usage:
//
//	rwdstore ingest -dir ./corpus.store -name logs -kind log -file queries.log
//	rwdstore ingest -dir ./corpus.store -name graph -kind triples -file triples.tsv
//	rwdstore list    -dir ./corpus.store
//	rwdstore stats   -dir ./corpus.store
//	rwdstore compact -dir ./corpus.store
//	rwdstore verify  -dir ./corpus.store
//
// Triples input is one triple per line, tab-separated: subject,
// predicate, object. Log input is one query per line, verbatim.
//
// Exit codes match rwdanalyze: 2 for usage errors, 1 for I/O errors,
// 3 when -dir points at a missing or corrupt store (every subcommand
// except ingest, which creates the store when absent).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/textio"
)

const exitBadStore = 3

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	ctx := context.Background()
	var err error
	switch cmd {
	case "ingest":
		err = runIngest(ctx, args)
	case "list":
		err = withStore(args, runList)
	case "stats":
		err = withStore(args, runStats)
	case "compact":
		err = withStore(args, func(ctx context.Context, st *store.Store) error {
			return st.Compact(ctx)
		})
	case "verify":
		err = withStore(args, func(ctx context.Context, st *store.Store) error {
			if err := st.Verify(ctx); err != nil {
				return err
			}
			fmt.Println("ok")
			return nil
		})
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "rwdstore: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rwdstore:", err)
		if store.IsCorrupt(err) {
			os.Exit(exitBadStore)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: rwdstore <command> [flags]

commands:
  ingest   add triples (tab-separated s, p, o) or log lines to a corpus
  list     list corpora with entry and segment counts
  stats    print store-wide statistics
  compact  merge all segments into one and drop duplicates
  verify   check that every segment's keys are in order, every triple key
           and its terms decode, and no triple is in two segments; the
           POS/OSP keys of older stores are ignored and kept

run 'rwdstore <command> -h' for the flags of each command.
`)
}

// withStore opens an existing store (exit 3 if missing or corrupt) and
// runs fn against it. Mutating commands rely on Close to flush.
func withStore(args []string, fn func(context.Context, *store.Store) error) error {
	fs := flag.NewFlagSet("rwdstore", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "rwdstore: -dir is required")
		os.Exit(2)
	}
	st, err := store.OpenExisting(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rwdstore: store at %s is unusable: %v\n", *dir, err)
		os.Exit(exitBadStore)
	}
	defer st.Close()
	if err := fn(context.Background(), st); err != nil {
		return err
	}
	return st.Close()
}

func runIngest(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rwdstore ingest", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (created if missing)")
	name := fs.String("name", "", "corpus name (required)")
	kind := fs.String("kind", "log", "corpus kind: log|triples")
	file := fs.String("file", "-", "input file; '-' reads stdin")
	fs.Parse(args)
	if *dir == "" || *name == "" {
		fmt.Fprintln(os.Stderr, "rwdstore ingest: -dir and -name are required")
		os.Exit(2)
	}
	if *kind != "log" && *kind != "triples" {
		fmt.Fprintf(os.Stderr, "rwdstore ingest: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	lines, err := textio.ReadLines(in)
	if err != nil {
		return err
	}

	st, err := store.Open(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rwdstore: store at %s is unusable: %v\n", *dir, err)
		os.Exit(exitBadStore)
	}
	defer st.Close()

	var added int
	switch *kind {
	case "log":
		if added, err = st.IngestLog(ctx, *name, lines); err != nil {
			return err
		}
	case "triples":
		triples := make([]rdf.Triple, 0, len(lines))
		for i, ln := range lines {
			parts := strings.Split(ln, "\t")
			if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
				return fmt.Errorf("line %d: want 3 tab-separated non-empty fields, got %q", i+1, ln)
			}
			triples = append(triples, rdf.Triple{S: parts[0], P: parts[1], O: parts[2]})
		}
		if added, err = st.IngestTriples(ctx, *name, triples); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Printf("corpus %s: added %d of %d (%d duplicates skipped)\n",
		*name, added, len(lines), len(lines)-added)
	return nil
}

func runList(ctx context.Context, st *store.Store) error {
	cs, err := st.Corpora(ctx)
	if err != nil {
		return err
	}
	if len(cs) == 0 {
		fmt.Println("no corpora")
		return nil
	}
	fmt.Printf("%-24s %-8s %10s %10s\n", "NAME", "KIND", "ENTRIES", "SEGMENTS")
	for _, c := range cs {
		fmt.Printf("%-24s %-8s %10d %10d\n", c.Name, c.Kind, c.Entries, c.Segments)
	}
	return nil
}

func runStats(ctx context.Context, st *store.Store) error {
	s, err := st.StoreStats()
	if err != nil {
		return err
	}
	fmt.Printf("corpora:       %d\n", s.Corpora)
	fmt.Printf("triples:       %d\n", s.Triples)
	fmt.Printf("log lines:     %d\n", s.LogLines)
	fmt.Printf("segments:      %d (%d bytes)\n", s.Segments, s.SegmentBytes)
	fmt.Printf("terms interned: %d\n", s.Terms)
	fmt.Printf("pending keys:  %d\n", s.PendingKeys)
	return nil
}
