package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/wire"
)

// pipeServer runs a loopback listener that echoes every received frame
// back verbatim (raw bytes, not re-framed), returning its address.
func echoServer(t *testing.T, ln net.Listener) {
	t.Helper()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
}

func TestPassthrough(t *testing.T) {
	ln, _, err := Listen("tcp", "127.0.0.1:0", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := bytes.Repeat([]byte("chaos-free "), 100)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("zero-config chaos network altered bytes")
	}
}

// TestCorruptionRejectedByFraming proves the tentpole contract: a
// corrupted frame is rejected by the CRC32 framing, never mis-decoded.
func TestCorruptionRejectedByFraming(t *testing.T) {
	ln, nw, err := Listen("tcp", "127.0.0.1:0", Config{Seed: 7, CorruptProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := wire.Encode(wire.THello, &wire.Hello{Proto: wire.Version, Name: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	// The echo passes through the server-side chaos wrapper, whose
	// Write flips one byte; our framing must refuse the result.
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_, _, err = wire.ReadFrame(conn)
	if err == nil {
		t.Fatal("corrupted frame decoded without error")
	}
	if nw.Stats().Corruptions == 0 {
		t.Fatal("corruption counter not incremented")
	}
}

func TestInjectedReset(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	nw := New(Config{Seed: 3, ResetProb: 1})
	wrapped := nw.Wrap(a)
	go io.Copy(io.Discard, b) // drain whatever prefix the reset lets through
	_, err := wrapped.Write(bytes.Repeat([]byte{0xab}, 1024))
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("Write error = %v, want ErrInjectedReset", err)
	}
	if _, err := wrapped.Write([]byte{1}); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("post-reset Write error = %v, want ErrInjectedReset", err)
	}
	if nw.Stats().Resets != 1 {
		t.Fatalf("resets = %d, want 1", nw.Stats().Resets)
	}
}

func TestFragmentedWritesReassemble(t *testing.T) {
	ln, nw, err := Listen("tcp", "127.0.0.1:0", Config{Seed: 11, FragmentProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := wire.Encode(wire.TTrialsP, &wire.PackedTrials{Epoch: 9, Trials: []wire.PackedTrial{{ID: 1, Algo: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("fragmented frame failed to reassemble: %v", err)
	}
	var resp wire.PackedTrials
	if err := resp.DecodeFrom(payload); err != nil || typ != wire.TTrialsP || resp.Epoch != 9 {
		t.Fatalf("decoded %s %+v (err %v), want the original message", typ, resp, err)
	}
	if nw.Stats().Fragments == 0 {
		t.Fatal("fragment counter not incremented")
	}
}

func TestPartitionStallsUntilDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	nw := New(Config{Seed: 5})
	wrapped := nw.Wrap(a)
	nw.PartitionFor(5 * time.Second)
	if !nw.Partitioned() {
		t.Fatal("PartitionFor did not open a window")
	}
	wrapped.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := wrapped.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read during partition = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("Read returned after %v, before the deadline", elapsed)
	}
	if nw.Stats().Blackholed == 0 {
		t.Fatal("blackholed counter not incremented")
	}
}

func TestPartitionHeals(t *testing.T) {
	ln, nw, err := Listen("tcp", "127.0.0.1:0", Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	nw.PartitionFor(80 * time.Millisecond)
	start := time.Now()
	// No deadline: the echo stalls through the window, then completes.
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("echo completed after %v, inside the partition window", elapsed)
	}
}

// TestDeterministicDecisions replays the same operation sequence
// through two same-seed networks: connection i must make identical
// fault decisions in both.
func TestDeterministicDecisions(t *testing.T) {
	run := func() []bool {
		nw := New(Config{Seed: 42, ResetProb: 0.3})
		var decisions []bool
		for conn := 0; conn < 4; conn++ {
			a, b := net.Pipe()
			w := nw.Wrap(a)
			go io.Copy(io.Discard, b)
			for op := 0; op < 8; op++ {
				_, err := w.Write([]byte("operation-payload"))
				decisions = append(decisions, errors.Is(err, ErrInjectedReset))
				if err != nil {
					break // connection is dead; later ops add nothing
				}
			}
			a.Close()
			b.Close()
		}
		return decisions
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("decision streams differ in length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("decision %d differs between same-seed runs", i)
		}
	}
	if !contains(first, true) {
		t.Fatal("no resets at probability 0.3 over 32 operations")
	}
}

func contains(s []bool, v bool) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("latency=2ms,reset=0.01,corrupt=0.05,frag=0.2,blackhole=10s/1s,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: 7, LatencyMax: 2 * time.Millisecond,
		FragmentProb: 0.2, ResetProb: 0.01, CorruptProb: 0.05,
		BlackholeEvery: 10 * time.Second, BlackholeFor: time.Second,
	}
	if cfg != want {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if cfg, err := ParseSpec(""); err != nil || cfg != (Config{}) {
		t.Fatalf("empty spec = %+v, %v; want zero config", cfg, err)
	}
	for _, bad := range []string{"nope", "reset=2", "blackhole=10s", "blackhole=1s/2s", "latency=fast", "x=1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}
