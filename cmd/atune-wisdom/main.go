// Command atune-wisdom inspects and merges wisdom files — the persisted
// tuning results written by applications using internal/wisdom (see
// examples/matmul) — and inspects tuner checkpoint state.
//
// Usage:
//
//	atune-wisdom show <file>
//	atune-wisdom merge <out> <in>...
//	atune-wisdom inspect <checkpoint-dir | seg-*.log>
//
// inspect validates a checkpoint directory — each journal segment's
// snapshot lines, record count and first damaged line — lists the
// records a resume would replay and pretty-prints the snapshot it would
// restore. Given one segment it lists the segment's lines. A contextual
// engine's directory reads like a flat one: its records are listed with
// their context tag, its replicas' births and its splits each on a line
// of their own. A format-2 directory or file (snap-*.ckpt, wal-*.log),
// and a directory in the earlier contextual layout, are refused, as a
// resume refuses them.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/report"
	"repro/internal/wisdom"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atune-wisdom: ")
	if len(os.Args) < 3 {
		usage()
	}
	switch os.Args[1] {
	case "show":
		show(os.Args[2])
	case "merge":
		if len(os.Args) < 4 {
			usage()
		}
		merge(os.Args[2], os.Args[3:])
	case "inspect":
		inspect(os.Args[2])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: atune-wisdom show <file> | atune-wisdom merge <out> <in>... | atune-wisdom inspect <path>")
	os.Exit(2)
}

func show(path string) {
	s, err := wisdom.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	t := report.NewTable(fmt.Sprintf("wisdom: %s (%d entries)", path, s.Len()),
		"context", "algorithm", "value", "samples")
	for _, key := range s.Keys() {
		e, _ := s.Lookup(key)
		t.Addf(key, e.Algorithm, e.Value, e.Samples)
	}
	t.Render(os.Stdout)
}

func inspect(path string) {
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	if info.IsDir() {
		inspectDir(path)
		return
	}
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "seg-"):
		inspectSegment(path)
	case strings.HasPrefix(base, "snap-"), strings.HasPrefix(base, "wal-"):
		log.Fatalf("inspect: %s: %v", path, checkpoint.ErrFormat2)
	default:
		log.Fatalf("inspect: %s is neither a checkpoint directory nor a seg-*.log", path)
	}
}

// inspectDir validates every segment in a checkpoint directory,
// summarizes them, and prints the snapshot a resume would restore.
func inspectDir(dir string) {
	if !checkpoint.Exists(dir) {
		log.Fatalf("inspect: %s contains no checkpoint state", dir)
	}
	st, err := checkpoint.Load(dir)
	if errors.Is(err, checkpoint.ErrFormat2) || errors.Is(err, checkpoint.ErrContextLayout) {
		log.Fatalf("inspect: %s: %v", dir, err)
	}
	t := report.NewTable(fmt.Sprintf("checkpoint: %s", dir),
		"file", "kind", "snapshots at", "records", "first damaged line")
	for _, seq := range checkpoint.Segments(dir) {
		p := checkpoint.SegPath(dir, seq)
		info, err := checkpoint.InspectSegment(p)
		if err != nil {
			t.Addf(filepath.Base(p), "segment", "-", "-", err.Error())
			continue
		}
		t.Addf(filepath.Base(p), "segment", snapshotIters(info.Snapshots), info.Records, damagedLine(info.Damaged))
	}
	t.Render(os.Stdout)

	if err != nil {
		log.Fatalf("inspect: no loadable snapshot: %v", err)
	}
	fmt.Printf("\nresume point: snapshot at iteration %d, %d records after it, highest trial %d\n",
		st.Iter, len(st.Records), st.Trial)
	printRecords(st.Records)
	printJSON(st.Payload)
}

// snapshotIters lists the iterations of a segment's snapshot lines.
func snapshotIters(snaps []checkpoint.SnapshotLine) string {
	if len(snaps) == 0 {
		return "none"
	}
	iters := make([]string, len(snaps))
	for i, s := range snaps {
		iters[i] = fmt.Sprint(s.Iter)
	}
	return strings.Join(iters, ",")
}

func damagedLine(n int) string {
	if n == 0 {
		return "none"
	}
	return fmt.Sprint(n)
}

// inspectSegment lists one segment's snapshot lines and valid records.
func inspectSegment(path string) {
	info, err := checkpoint.InspectSegment(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d lines, %d snapshot lines, %d valid records, first damaged line %s\n",
		path, info.Lines, len(info.Snapshots), info.Records, damagedLine(info.Damaged))
	for _, s := range info.Snapshots {
		fmt.Printf("  line %d: snapshot at iteration %d, highest trial %d, %d bytes\n", s.Line, s.Iter, s.Trial, s.Len)
	}
	recs, err := checkpoint.ReadJournal(path)
	if err != nil {
		log.Fatal(err)
	}
	printRecords(recs)
}

// printRecords lists records one a line: a flat engine's as their JSON,
// a contextual record behind its context tag, and a context's birth or
// split in words.
func printRecords(recs []checkpoint.Record) {
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case r.Ctx == "":
			fmt.Printf("  %s\n", line)
		case r.Algo == "" && len(r.Split) == 2:
			fmt.Printf("  split %s at feature %g, bin %g (iteration %d)\n", r.Ctx, r.Split[0], r.Split[1], r.Iter)
		case r.Algo == "" && r.Drift == "":
			fmt.Printf("  context %s born (iteration %d)\n", r.Ctx, r.Iter)
		default:
			fmt.Printf("  context %s: %s\n", r.Ctx, line)
		}
	}
}

func printJSON(payload []byte) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, payload, "", "  "); err != nil {
		log.Fatal(err)
	}
	fmt.Println(buf.String())
}

func merge(out string, ins []string) {
	merged := wisdom.NewStore()
	for _, in := range ins {
		s, err := wisdom.LoadFile(in)
		if err != nil {
			log.Fatal(err)
		}
		changed := merged.Merge(s)
		fmt.Printf("merged %s: %d entries folded in\n", in, changed)
	}
	if err := merged.SaveFile(out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d entries)\n", out, merged.Len())
}
