// Command atune-wisdom inspects and merges wisdom files — the persisted
// tuning results written by applications using internal/wisdom (see
// examples/matmul) — and inspects tuner checkpoint state.
//
// Usage:
//
//	atune-wisdom show <file>
//	atune-wisdom merge <out> <in>...
//	atune-wisdom inspect <checkpoint-dir | seg-*.log | snap-*.ckpt | wal-*.log>
//
// inspect validates a checkpoint directory — each journal segment's
// snapshot lines, record count and first damaged line, or a format-2
// directory's snapshot files and journals — and pretty-prints the
// snapshot a resume would restore. Given one file it lists a segment's
// lines, or validates a format-2 snapshot or journal file.
package main

import (
	"bytes"
	"encoding/json"
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
	case strings.HasPrefix(base, "snap-"):
		inspectSnapshot(path)
	case strings.HasPrefix(base, "wal-"):
		inspectJournal(path)
	default:
		log.Fatalf("inspect: %s is neither a checkpoint directory, a seg-*.log, a snap-*.ckpt, nor a wal-*.log", path)
	}
}

// inspectDir validates every segment, and any format-2 snapshot and
// journal file, in a checkpoint directory, summarizes them, and prints
// the snapshot a resume would restore.
func inspectDir(dir string) {
	if !checkpoint.Exists(dir) {
		log.Fatalf("inspect: %s contains no checkpoint state", dir)
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
	for _, name := range legacyFiles(dir) {
		p := filepath.Join(dir, name)
		if strings.HasPrefix(name, "snap-") {
			status := "none"
			data, err := os.ReadFile(p)
			if err == nil {
				_, err = checkpoint.DecodeSnapshot(data)
			}
			if err != nil {
				status = err.Error()
			}
			t.Addf(name, "v2 snapshot", "-", "-", status)
			continue
		}
		info, err := checkpoint.InspectSegment(p)
		if err != nil {
			t.Addf(name, "v2 journal", "-", "-", err.Error())
			continue
		}
		t.Addf(name, "v2 journal", "-", info.Records, damagedLine(info.Damaged))
	}
	t.Render(os.Stdout)

	st, err := checkpoint.Load(dir)
	if err != nil {
		log.Fatalf("inspect: no loadable snapshot: %v", err)
	}
	fmt.Printf("\nresume point: snapshot at iteration %d, %d records after it, highest trial %d\n",
		st.Iter, len(st.Records), st.Trial)
	printJSON(st.Payload)
}

// legacyFiles lists the format-2 snap-*.ckpt and wal-*.log files in dir.
func legacyFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if (strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".ckpt")) ||
			(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")) {
			out = append(out, name)
		}
	}
	return out
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

// inspectSnapshot validates one snapshot file and pretty-prints its
// payload.
func inspectSnapshot(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	payload, err := checkpoint.DecodeSnapshot(data)
	if err != nil {
		log.Fatalf("inspect: %s: %v", path, err)
	}
	fmt.Printf("%s: valid (format 2, %d payload bytes)\n", path, len(payload))
	printJSON(payload)
}

// inspectJournal prints every valid record of one format-2 journal file.
func inspectJournal(path string) {
	recs, rerr := checkpoint.ReadJournal(path)
	fmt.Printf("%s: %d valid records\n", path, len(recs))
	if rerr != nil {
		fmt.Printf("  (read stopped early: %v)\n", rerr)
	}
	printRecords(recs)
}

func printRecords(recs []checkpoint.Record) {
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", line)
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
