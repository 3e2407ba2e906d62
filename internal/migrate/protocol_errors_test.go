package migrate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
)

// Deterministic regression cases for the wire protocol's error paths,
// complementing the coverage-by-accident of the fuzz tests: short writes,
// truncated frames mid-stream, and oversized length prefixes must surface
// as errors (never panics) through SendStateResumable/Receiver.Receive.

// frameBytes renders one valid frame for surgery.
func frameBytes(t *testing.T, kind FrameKind, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, kind, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// failAfter is a writer that accepts n bytes and then errors.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	n := w.n
	w.n = 0
	return n, w.err
}

func TestWriteFrameShortWrite(t *testing.T) {
	wireErr := errors.New("link dropped")
	full := len(frameBytes(t, FrameSession, []byte("payload")))
	// Fail at every byte offset: header, payload, and checksum writes must
	// all propagate the sink's error.
	for n := 0; n < full; n++ {
		err := WriteFrame(&failAfter{n: n, err: wireErr}, FrameSession, []byte("payload"))
		if !errors.Is(err, wireErr) {
			t.Fatalf("accept %d bytes: err = %v, want wrapped %v", n, err, wireErr)
		}
	}
	if err := WriteFrame(&failAfter{n: full, err: wireErr}, FrameSession, []byte("payload")); err != nil {
		t.Fatalf("full frame written but err = %v", err)
	}
}

func TestSendStateShortWrite(t *testing.T) {
	wireErr := errors.New("link dropped")
	for _, n := range []int{0, 5, 20, 40} {
		if err := sendState(&failAfter{n: n, err: wireErr}, []byte("generic"), []byte("session")); !errors.Is(err, wireErr) {
			t.Fatalf("accept %d bytes: err = %v, want wrapped %v", n, err, wireErr)
		}
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full := frameBytes(t, FrameSession, []byte("some session state"))
	// Cut the stream at every point inside the frame. Offset 0 is a clean
	// EOF (stream ended between frames); every other cut is an error too,
	// just with the position-specific wrapping.
	for cut := 0; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut at %d: no error", cut)
		}
		if cut == 0 && err != io.EOF {
			t.Fatalf("cut at 0: err = %v, want io.EOF", err)
		}
	}
	if _, _, err := ReadFrame(bytes.NewReader(full)); err != nil {
		t.Fatalf("intact frame: %v", err)
	}
}

func TestReceiveStateTruncatedMidStream(t *testing.T) {
	var stream bytes.Buffer
	if err := sendState(&stream, []byte("generic"), []byte("session")); err != nil {
		t.Fatal(err)
	}
	full := stream.Bytes()
	// Drop the trailing cut-over frame and some of the session frame: the
	// receiver must error out rather than return partial state as success.
	for _, cut := range []int{len(full) - 1, len(full) - frameOverhead, len(full) - frameOverhead - 3} {
		_, _, err := receiveState(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut at %d: ReceiveState returned partial state without error", cut)
		}
	}
}

func TestReadFrameOversizedLength(t *testing.T) {
	frame := frameBytes(t, FrameSession, []byte("x"))
	binary.BigEndian.PutUint32(frame[6:10], maxFrame+1)
	_, _, err := ReadFrame(bytes.NewReader(frame))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized length: err = %v", err)
	}
	// A length of 2^32-1 must be rejected before allocation, not OOM.
	binary.BigEndian.PutUint32(frame[6:10], ^uint32(0))
	if _, _, err := ReadFrame(bytes.NewReader(frame)); err == nil {
		t.Fatal("4 GiB length prefix accepted")
	}
}

func TestWriteFrameOversizedPayload(t *testing.T) {
	// The payload cap is checked before any bytes hit the wire.
	sink := &failAfter{n: 0, err: errors.New("should not be written")}
	err := WriteFrame(sink, FrameSession, make([]byte, maxFrame+1))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized payload: err = %v", err)
	}
}

func TestReadFrameCorruptHeaderAndChecksum(t *testing.T) {
	good := frameBytes(t, FrameSession, []byte("abc"))

	bad := append([]byte(nil), good...)
	copy(bad[:4], "XOSM")
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[4] = 99
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: err = %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[10] ^= 0xff // flip a payload byte; stored CRC now mismatches
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bad checksum: err = %v", err)
	}
}

func TestReceiveStateUnknownFrameKind(t *testing.T) {
	var stream bytes.Buffer
	payload := []byte("p")
	header := []byte{'I', 'O', 'S', 'M', protocolVersion, 200, 0, 0, 0, 1}
	stream.Write(header)
	stream.Write(payload)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	stream.Write(crc[:])
	_, _, err := receiveState(&stream)
	if err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
		t.Fatalf("unknown kind: err = %v", err)
	}
}

func TestWireMetricsAndSpans(t *testing.T) {
	m := wire()
	outBefore := m.bytesOut.Value()
	inBefore := m.bytesIn.Value()
	errBefore := m.errors.With("in").Value()

	clock := 0.0
	tr := obs.NewTracer(func() float64 { return clock })
	SetTracer(tr)
	defer SetTracer(nil)

	var stream bytes.Buffer
	if err := sendState(&stream, []byte("ggg"), []byte("ssss")); err != nil {
		t.Fatal(err)
	}
	wireLen := uint64(stream.Len())
	if _, _, err := receiveState(bytes.NewReader(stream.Bytes())); err != nil {
		t.Fatal(err)
	}

	if got := m.bytesOut.Value() - outBefore; got != wireLen {
		t.Fatalf("bytes out delta = %d, want %d", got, wireLen)
	}
	if got := m.bytesIn.Value() - inBefore; got != wireLen {
		t.Fatalf("bytes in delta = %d, want %d", got, wireLen)
	}

	// A truncated stream bumps the decode-error counter.
	if _, _, err := receiveState(bytes.NewReader(stream.Bytes()[:5])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if got := m.errors.With("in").Value(); got <= errBefore {
		t.Fatalf("decode errors = %d, want > %d", got, errBefore)
	}

	// Spans: a send root with three phases, a receive root.
	var names []string
	for _, r := range tr.Records() {
		names = append(names, r.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"migrate.send", "send.generic", "send.session", "send.cutover", "migrate.receive"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("spans missing %q: %v", want, names)
		}
	}
}
