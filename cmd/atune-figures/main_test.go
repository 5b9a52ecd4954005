package main

import (
	"bytes"
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
