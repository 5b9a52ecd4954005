package tuned

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// readRefusal reads one reply frame from br and checks it is a v1-stamped
// ErrorResp whose message contains want.
func readRefusal(t *testing.T, br *bufio.Reader, want string) {
	t.Helper()
	hdr, err := br.Peek(wire.HeaderSize)
	if err != nil {
		t.Fatal(err)
	}
	if hdr[4] != 1 {
		t.Fatalf("refusal stamped v%d; a v1 decoder accepts only v1", hdr[4])
	}
	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	var e wire.ErrorResp
	if typ != wire.TError || e.DecodeFrom(payload) != nil {
		t.Fatalf("answered with %s %q, want an error", typ, payload)
	}
	if e.Code != wire.CodeBadRequest || !strings.Contains(e.Msg, want) {
		t.Fatalf("refusal %+v, want code %d naming %q", e, wire.CodeBadRequest, want)
	}
}

// TestOldHelloRefused: a v1 or v2 Hello, in a frame stamped with its own
// version, is answered with a v1-stamped refusal naming the one version
// the server speaks, and the connection is closed.
func TestOldHelloRefused(t *testing.T) {
	_, _, addr := startServer(t, nil)
	for _, proto := range []byte{1, 2} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wire.WriteMsgV(conn, proto, wire.THello, &wire.Hello{Proto: int(proto), Name: "old-worker"}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(conn)
		readRefusal(t, br, "server speaks 3..3")
		if _, _, err := wire.ReadFrame(br); err != io.EOF {
			t.Fatalf("v%d: after the refusal read %v, want the connection closed", proto, err)
		}
	}
}

// rawPayload is a payload given as its encoded bytes.
type rawPayload string

func (p rawPayload) AppendEncode(buf []byte) []byte { return append(buf, p...) }
func (p rawPayload) DecodeFrom([]byte) error        { return nil }

// TestJSONTrialFrameRefused: a retired JSON trial frame on an
// established v3 session is an unexpected frame, not a lease.
func TestJSONTrialFrameRefused(t *testing.T) {
	_, _, addr := startServer(t, nil)
	r := dialRaw(t, addr, false)
	r.send(wire.TLeaseN, rawPayload(`{"n":2}`))
	typ, payload, err := wire.ReadFrame(r.br)
	if err != nil {
		t.Fatal(err)
	}
	var e wire.ErrorResp
	if typ != wire.TError || e.DecodeFrom(payload) != nil || !strings.Contains(e.Msg, "unexpected frame lease-n") {
		t.Fatalf("JSON lease answered with %s %q, want an unexpected-frame error", typ, payload)
	}
}

// TestDialRefusesOtherProtocol: a server whose HelloAck states protocol
// 2 fails Dial with an error naming both versions, and the client sends
// nothing more — no lockstep v2 session.
func TestDialRefusesOtherProtocol(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	after := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			after <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if typ, _, err := wire.ReadFrame(br); err != nil || typ != wire.THello {
			after <- errors.New("first frame is not a hello")
			return
		}
		wire.WriteMsgV(conn, 2, wire.THelloAck, &wire.HelloAck{Proto: 2, Hash: 1, Epoch: 5, Algos: []string{"a", "b"}})
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		typ, _, err := wire.ReadFrame(br)
		if err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("client sent " + typ.String() + " after the v2 ack")
		}
		after <- err
	}()
	c, err := Dial(ln.Addr().String())
	if err == nil {
		c.Close()
		t.Fatal("Dial joined a protocol-2 server")
	}
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "protocol 2") || !strings.Contains(re.Msg, "speaks 3") {
		t.Fatalf("Dial error %v, want one naming protocols 2 and 3", err)
	}
	if err := <-after; err != nil {
		t.Fatal(err)
	}
}
