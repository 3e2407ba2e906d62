package migrate

import (
	"bytes"
	"testing"
)

// FuzzReadFrame hardens the wire parser: arbitrary bytes must never panic
// or over-allocate, and valid frames must round-trip.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	if err := WriteFrame(&good, FrameSession, []byte("seed-state")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte("IOSM"))
	f.Add([]byte{})
	f.Add([]byte{'I', 'O', 'S', 'M', 1, 1, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must re-serialise to an equivalent frame.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, kind, payload); err != nil {
			t.Fatalf("re-write of accepted frame failed: %v", err)
		}
		k2, p2, err := ReadFrame(&buf)
		if err != nil || k2 != kind || !bytes.Equal(p2, payload) {
			t.Fatalf("round trip mismatch: %v %v", k2, err)
		}
	})
}

// FuzzReceiveState drives the full state stream parser.
func FuzzReceiveState(f *testing.F) {
	var good bytes.Buffer
	if err := sendState(&good, []byte("generic"), []byte("session")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte("IOSMxxxx"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, s, err := receiveState(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted streams round-trip.
		var buf bytes.Buffer
		if err := sendState(&buf, g, s); err != nil {
			t.Fatalf("re-send failed: %v", err)
		}
		g2, s2, err := receiveState(&buf)
		if err != nil || !bytes.Equal(g, g2) || !bytes.Equal(s, s2) {
			t.Fatalf("round trip mismatch: %v", err)
		}
	})
}
