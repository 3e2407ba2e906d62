package migrate

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/obs"
)

// Wire protocol for real state transfers (used by cmd/meetupd): a tiny
// framed format over any io stream (normally TCP):
//
//	magic   [4]byte  "IOSM" (In-Orbit State Migration)
//	version uint8    (1)
//	kind    uint8    frame kind
//	length  uint32   payload byte count (big endian)
//	payload [length]byte
//	crc     uint32   CRC-32 (IEEE) of payload
//
// Frames are written atomically per call; the receiver validates magic,
// version, and checksum.

// FrameKind tags the payload semantics.
type FrameKind uint8

const (
	// FrameSession carries session-specific state.
	FrameSession FrameKind = 1
	// FrameGeneric carries generic (pre-replicated) state.
	FrameGeneric FrameKind = 2
	// FrameCutover signals the handover point: the receiver becomes the
	// authoritative server after this frame.
	FrameCutover FrameKind = 3
)

var magic = [4]byte{'I', 'O', 'S', 'M'}

const protocolVersion = 1

// maxFrame bounds a frame payload (64 MiB) so a corrupted length cannot make
// the receiver allocate unbounded memory.
const maxFrame = 64 << 20

// frameOverhead is the non-payload wire cost per frame: header + checksum.
const frameOverhead = 14

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, kind FrameKind, payload []byte) error {
	if err := writeFrame(w, kind, payload); err != nil {
		wire().errors.With("out").Inc()
		return err
	}
	wire().bytesOut.Add(uint64(len(payload)) + frameOverhead)
	return nil
}

func writeFrame(w io.Writer, kind FrameKind, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("migrate: frame payload %d exceeds %d bytes", len(payload), maxFrame)
	}
	header := make([]byte, 10)
	copy(header[:4], magic[:])
	header[4] = protocolVersion
	header[5] = byte(kind)
	binary.BigEndian.PutUint32(header[6:10], uint32(len(payload)))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("migrate: write header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("migrate: write payload: %w", err)
		}
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("migrate: write checksum: %w", err)
	}
	return nil
}

// ReadFrame reads and validates one frame from r.
func ReadFrame(r io.Reader) (FrameKind, []byte, error) {
	kind, payload, err := readFrame(r)
	if err != nil {
		if err != io.EOF { // a clean EOF between frames is not a decode error
			wire().errors.With("in").Inc()
		}
		return kind, payload, err
	}
	wire().bytesIn.Add(uint64(len(payload)) + frameOverhead)
	return kind, payload, nil
}

func readFrame(r io.Reader) (FrameKind, []byte, error) {
	header := make([]byte, 10)
	if _, err := io.ReadFull(r, header); err != nil {
		return 0, nil, err // propagate io.EOF unchanged for clean shutdown
	}
	if [4]byte(header[:4]) != magic {
		return 0, nil, fmt.Errorf("migrate: bad magic %q", header[:4])
	}
	if header[4] != protocolVersion {
		return 0, nil, fmt.Errorf("migrate: unsupported version %d", header[4])
	}
	kind := FrameKind(header[5])
	length := binary.BigEndian.Uint32(header[6:10])
	if length > maxFrame {
		return 0, nil, fmt.Errorf("migrate: frame length %d exceeds %d", length, maxFrame)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("migrate: read payload: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return 0, nil, fmt.Errorf("migrate: read checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(crc[:]); got != want {
		return 0, nil, fmt.Errorf("migrate: checksum mismatch (got %08x, want %08x)", got, want)
	}
	return kind, payload, nil
}

// SendStateResumable streams a migration over w: generic state first
// (skipped when empty), then session state, then the cut-over marker. It
// chunks both payloads into frames of at most chunk bytes (0 means
// DefaultChunk) and skips the first genericOff/sessionOff bytes — the prefix a receiver
// already holds from an earlier, interrupted attempt (Receiver.Offsets).
// Offsets outside [0, len] are an error: they indicate the two sides
// disagree about the transfer.
func SendStateResumable(w io.Writer, generic, session []byte, genericOff, sessionOff, chunk int) error {
	if genericOff < 0 || genericOff > len(generic) || sessionOff < 0 || sessionOff > len(session) {
		return fmt.Errorf("migrate: resume offsets %d/%d outside payloads %d/%d",
			genericOff, sessionOff, len(generic), len(session))
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	root := tracer.Load().Start("migrate.send")
	root.SetAttr("generic_bytes", fmt.Sprint(len(generic)-genericOff))
	root.SetAttr("session_bytes", fmt.Sprint(len(session)-sessionOff))
	root.SetAttr("resumed", fmt.Sprint(genericOff+sessionOff > 0))
	defer root.End()

	if err := sendChunked(root, "send.generic", w, FrameGeneric, generic[genericOff:], chunk); err != nil {
		return err
	}
	// The session frame is always written, even when empty or fully
	// resumed, so the receiver's session buffer is marked present.
	if err := sendChunked(root, "send.session", w, FrameSession, session[sessionOff:], chunk); err != nil {
		return err
	}
	sp := root.Child("send.cutover")
	err := WriteFrame(w, FrameCutover, nil)
	sp.End()
	return err
}

// DefaultChunk is the resumable-send frame payload size: small enough that
// an interrupted transfer loses at most one chunk of progress, large
// enough that frame overhead stays negligible.
const DefaultChunk = 256 << 10

// sendChunked writes payload as ceil(len/chunk) frames of the given kind
// (at least one frame for FrameSession so an empty session still appears).
func sendChunked(root *obs.Span, label string, w io.Writer, kind FrameKind, payload []byte, chunk int) error {
	if len(payload) == 0 && kind != FrameSession {
		return nil
	}
	sp := root.Child(label)
	defer sp.End()
	for {
		n := len(payload)
		if n > chunk {
			n = chunk
		}
		if err := WriteFrame(w, kind, payload[:n]); err != nil {
			return err
		}
		payload = payload[n:]
		if len(payload) == 0 {
			return nil
		}
	}
}

// Receiver reassembles a migration across one or more connections: frames
// accumulate into Generic and Session, and when a transfer attempt dies
// mid-stream the partial state is retained so the sender can resume from
// Offsets instead of starting over.
type Receiver struct {
	// Generic and Session hold the bytes received so far.
	Generic, Session []byte
	// Done is true once the cut-over marker arrived.
	Done bool
}

// Offsets returns how many generic and session bytes the receiver already
// holds — what a resuming sender passes to SendStateResumable.
func (rx *Receiver) Offsets() (generic, session int) {
	return len(rx.Generic), len(rx.Session)
}

// Receive consumes frames from r until the cut-over marker. On error the
// partially received state stays in the receiver for a later resume; on
// success Done is set and the assembled state is in Generic/Session.
func (rx *Receiver) Receive(r io.Reader) error {
	if rx.Done {
		return fmt.Errorf("migrate: receiver already completed")
	}
	root := tracer.Load().Start("migrate.receive")
	defer func() {
		root.SetAttr("generic_bytes", fmt.Sprint(len(rx.Generic)))
		root.SetAttr("session_bytes", fmt.Sprint(len(rx.Session)))
		root.End()
	}()
	for {
		kind, payload, err := ReadFrame(r)
		if err != nil {
			return err
		}
		switch kind {
		case FrameGeneric:
			rx.Generic = append(rx.Generic, payload...)
		case FrameSession:
			rx.Session = append(rx.Session, payload...)
		case FrameCutover:
			rx.Done = true
			return nil
		default:
			return fmt.Errorf("migrate: unknown frame kind %d", kind)
		}
	}
}
