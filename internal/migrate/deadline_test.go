package migrate

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// tcpPair returns both ends of a real loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, derr := net.Dial("tcp", ln.Addr().String())
	<-done
	if derr != nil {
		t.Fatal(derr)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestTimeoutReaderStalledPeer: a receive from a peer that sends a partial
// frame and then goes silent must fail with a timeout, not block forever.
func TestTimeoutReaderStalledPeer(t *testing.T) {
	client, server := tcpPair(t)

	// The "wedged sender": half a frame header, then silence.
	go func() {
		client.Write([]byte("IOSM\x01"))
		// Keep the conn open so the stall is a hang, not an EOF.
	}()

	start := time.Now()
	_, _, err := receiveState(TimeoutReader(bufio.NewReader(server), server, 50*time.Millisecond))
	if err == nil {
		t.Fatal("receive from a stalled peer succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline not armed", elapsed)
	}
}

// TestTimeoutWriterStalledPeer: writing to a peer that never reads must
// eventually trip the write deadline once the kernel buffers fill.
func TestTimeoutWriterStalledPeer(t *testing.T) {
	client, _ := tcpPair(t)
	// The server end never reads.

	payload := bytes.Repeat([]byte("x"), 1<<20)
	w := TimeoutWriter(client, client, 50*time.Millisecond)
	var err error
	for i := 0; i < 64 && err == nil; i++ { // ~64 MB >> any socket buffer
		err = WriteFrame(w, FrameSession, payload)
	}
	if err == nil {
		t.Fatal("writes to a stalled peer never failed")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
}

// TestTimeoutDisabled: non-positive timeouts return the stream unchanged.
func TestTimeoutDisabled(t *testing.T) {
	var buf bytes.Buffer
	if r := TimeoutReader(&buf, nil, 0); r != &buf {
		t.Error("TimeoutReader(0) wrapped the reader")
	}
	if w := TimeoutWriter(&buf, nil, -time.Second); w != &buf {
		t.Error("TimeoutWriter(<0) wrapped the writer")
	}
}
