package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyRejectsUnknownIDs: an id that names no artefact — a typo, or
// the retired a13 — exits non-zero naming it and the known ids, instead
// of printing nothing and exiting 0.
func TestOnlyRejectsUnknownIDs(t *testing.T) {
	for _, only := range []string{"a13", "t1,f9"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-only", only}, &out, &errOut)
		bad := only[strings.LastIndex(only, ",")+1:]
		if code == 0 {
			t.Errorf("-only %s: exit code 0", only)
		}
		if msg := errOut.String(); !strings.Contains(msg, `unknown id "`+bad+`"`) || !strings.Contains(msg, strings.Join(ids, " ")) {
			t.Errorf("-only %s: stderr %q does not name %s and the known ids", only, msg, bad)
		}
		if out.Len() != 0 {
			t.Errorf("-only %s printed %q before rejecting the id", only, out.String())
		}
	}
}

// TestOnlyT1PrintsTableI: a known id prints its artefact and nothing
// else; ids are matched after lowercasing.
func TestOnlyT1PrintsTableI(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "T1"}, &out, &errOut); code != 0 {
		t.Fatalf("-only T1: exit code %d, stderr %q", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "Table I: parameter classes") || !strings.Contains(got, "Choice of algorithm") {
		t.Fatalf("-only T1 printed %q, want Table I", got)
	}
	if strings.Contains(got, "Table II") {
		t.Fatalf("-only T1 also printed Table II:\n%s", got)
	}
}

// TestSeededAblationsGolden: the seeded, synthetic ablations print the
// bytes of testdata/seeded-ablations.txt. A1–A4 there also match
// figures_output.txt. The bank-driven ablations (A10–A12, A14–A16) are
// left out: their banks are recorded from wall-clock timings, so their
// winners can change from run to run (A11's did in one of ten runs).
func TestSeededAblationsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "seeded-ablations.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "a1,a2,a3,a4,a8,a9"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, errOut.String())
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("seeded ablations changed:\n%s\nwant:\n%s", got, want)
	}
}
