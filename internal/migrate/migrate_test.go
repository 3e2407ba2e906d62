package migrate

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
)

// sendState streams a whole migration in one attempt: nothing resumed,
// default chunking.
func sendState(w io.Writer, generic, session []byte) error {
	return SendStateResumable(w, generic, session, 0, 0, 0)
}

// receiveState runs a fresh Receiver to the cut-over marker.
func receiveState(r io.Reader) (generic, session []byte, err error) {
	var rx Receiver
	err = rx.Receive(r)
	return rx.Generic, rx.Session, err
}

func TestValidation(t *testing.T) {
	if _, err := Live(State{SessionMB: -1}, Link{BandwidthMBps: 1}); err == nil {
		t.Fatal("negative state accepted")
	}
	if _, err := Live(State{}, Link{BandwidthMBps: 0}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := Live(State{}, Link{BandwidthMBps: 10, OneWayMs: -1}); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestLiveBeatsColdOnDowntime(t *testing.T) {
	s := State{SessionMB: 200, DirtyRateMBps: 20}
	l := Link{BandwidthMBps: 250, OneWayMs: 6}
	live, err := Live(s, l)
	if err != nil {
		t.Fatal(err)
	}
	// A cold (stop-the-world) migration pauses for the whole transfer.
	coldSec := l.OneWayMs/1000 + s.SessionMB/l.BandwidthMBps
	if live.DowntimeSec >= coldSec {
		t.Fatalf("live downtime %v not below cold %v", live.DowntimeSec, coldSec)
	}
	// But live sends more bytes (re-sent dirty state).
	if live.TransferredMB < s.SessionMB {
		t.Fatalf("live transferred %v less than the state's %v MB", live.TransferredMB, s.SessionMB)
	}
	if live.Rounds < 2 {
		t.Fatalf("expected multiple pre-copy rounds, got %d", live.Rounds)
	}
}

func TestLiveDiverges(t *testing.T) {
	_, err := Live(State{SessionMB: 10, DirtyRateMBps: 300}, Link{BandwidthMBps: 250, OneWayMs: 1})
	if !errors.Is(err, ErrDiverges) {
		t.Fatalf("err = %v, want ErrDiverges", err)
	}
}

func TestLiveEmptyState(t *testing.T) {
	r, err := Live(State{}, Link{BandwidthMBps: 100, OneWayMs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.DowntimeSec-0.008) > 1e-12 {
		t.Fatalf("empty-state downtime = %v, want just the cut-over delay", r.DowntimeSec)
	}
}

func TestGenericReplicatedAheadShrinksMigration(t *testing.T) {
	s := State{SessionMB: 20, GenericMB: 500, DirtyRateMBps: 5}
	l := Link{BandwidthMBps: 250, OneWayMs: 6}
	ahead, err := Live(s, l)
	if err != nil {
		t.Fatal(err)
	}
	// The generic state is already on the successor: the migration costs
	// what the session alone costs, far below sending the generic state.
	session, err := Live(State{SessionMB: s.SessionMB, DirtyRateMBps: s.DirtyRateMBps}, l)
	if err != nil {
		t.Fatal(err)
	}
	if ahead != session {
		t.Fatalf("generic state moved with the session: %+v vs %+v", ahead, session)
	}
	if genericSec := s.GenericMB / l.BandwidthMBps; ahead.TotalSec >= genericSec/2 {
		t.Fatalf("replicate-ahead total %v not much below the generic copy's %v", ahead.TotalSec, genericSec)
	}
}

func TestLiveDowntimeShrinksWithBandwidth(t *testing.T) {
	s := State{SessionMB: 100, DirtyRateMBps: 10}
	// Downtime approaches the propagation floor as bandwidth grows; assert
	// a near-monotone trend (the stop-condition quantises the residual
	// copy, so allow 1 ms of slack) and a large first-to-last drop.
	var first, last float64
	prev := math.Inf(1)
	for i, bw := range []float64{50, 100, 500, 2500} {
		r, err := Live(s, Link{BandwidthMBps: bw, OneWayMs: 6})
		if err != nil {
			t.Fatal(err)
		}
		if r.DowntimeSec > prev+0.001 {
			t.Fatalf("downtime grew at bw=%v: %v > %v", bw, r.DowntimeSec, prev)
		}
		prev = r.DowntimeSec
		if i == 0 {
			first = r.DowntimeSec
		}
		last = r.DowntimeSec
	}
	if last > first/2 {
		t.Fatalf("downtime barely improved: %v -> %v", first, last)
	}
}

func TestGEOComparison(t *testing.T) {
	// The paper: LEO constellations offer GEO-like stationarity with ~65%
	// lower latency than GEO — i.e. a LEO RTT of 16 ms vs GEO's ~239 ms is
	// ~15x better; against 85 ms (worst LEO multi-hop) still >2x.
	if r := GEOComparison(16); r < 14 || r > 16 {
		t.Fatalf("GEO/LEO ratio at 16 ms = %v", r)
	}
	if !math.IsInf(GEOComparison(0), 1) {
		t.Fatal("zero RTT should give +Inf")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("in-orbit state")
	if err := WriteFrame(&buf, FrameSession, payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameSession || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: kind=%v payload=%q", kind, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameCutover, nil); err != nil {
		t.Fatal(err)
	}
	kind, got, err := ReadFrame(&buf)
	if err != nil || kind != FrameCutover || len(got) != 0 {
		t.Fatalf("cutover round trip: %v %q %v", kind, got, err)
	}
}

func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameSession, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a payload byte: checksum must catch it.
	bad := append([]byte(nil), raw...)
	bad[12] ^= 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted payload accepted")
	}

	// Bad magic.
	bad2 := append([]byte(nil), raw...)
	bad2[0] = 'X'
	if _, _, err := ReadFrame(bytes.NewReader(bad2)); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Bad version.
	bad3 := append([]byte(nil), raw...)
	bad3[4] = 99
	if _, _, err := ReadFrame(bytes.NewReader(bad3)); err == nil {
		t.Fatal("bad version accepted")
	}

	// Truncated stream.
	if _, _, err := ReadFrame(bytes.NewReader(raw[:5])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameSession, make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversize payload accepted on write")
	}
	// Hand-craft an oversize header.
	hdr := []byte{'I', 'O', 'S', 'M', 1, 1, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversize length accepted on read")
	}
}

func TestSendReceiveState(t *testing.T) {
	var buf bytes.Buffer
	generic := bytes.Repeat([]byte("world"), 1000)
	session := []byte("players")
	if err := sendState(&buf, generic, session); err != nil {
		t.Fatal(err)
	}
	g, s, err := receiveState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, generic) || !bytes.Equal(s, session) {
		t.Fatal("state mismatch after round trip")
	}
}

func TestSendReceiveStateNoGeneric(t *testing.T) {
	var buf bytes.Buffer
	if err := sendState(&buf, nil, []byte("s")); err != nil {
		t.Fatal(err)
	}
	g, s, err := receiveState(&buf)
	if err != nil || g != nil || !bytes.Equal(s, []byte("s")) {
		t.Fatalf("got %q %q %v", g, s, err)
	}
}

func TestReceiveStateEOF(t *testing.T) {
	_, _, err := receiveState(bytes.NewReader(nil))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestStateOverRealTCP(t *testing.T) {
	// End to end over actual sockets, the way cmd/meetupd migrates.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	r := rand.New(rand.NewSource(42))
	generic := make([]byte, 1<<20)
	session := make([]byte, 64<<10)
	r.Read(generic)
	r.Read(session)

	errc := make(chan error, 1)
	gotc := make(chan [2][]byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		g, s, err := receiveState(conn)
		if err != nil {
			errc <- err
			return
		}
		gotc <- [2][]byte{g, s}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := sendState(conn, generic, session); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	select {
	case err := <-errc:
		t.Fatal(err)
	case got := <-gotc:
		if !bytes.Equal(got[0], generic) || !bytes.Equal(got[1], session) {
			t.Fatal("TCP round trip mismatch")
		}
	}
}
