package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/migrate"
	"repro/internal/obs"
)

// TestStalledMigrationDoesNotBlockDrain: a peer that opens a migration,
// sends half a transfer, and goes silent used to pin its handler (and thus
// shutdown) on a blocked read forever. Drain now forces the connection
// deadlines after -draintimeout, so run() still returns.
func TestStalledMigrationDoesNotBlockDrain(t *testing.T) {
	s, clientAddr, sig, done := startFullServer(t, "sat-W")
	s.drainTimeout = 100 * time.Millisecond
	s.ioTimeout = time.Hour // deadlines must come from the forced drain, not the io timeout

	conn, err := net.DialTimeout("tcp", clientAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Start a migration and wedge: handshake plus a partial frame, then silence.
	if _, err := fmt.Fprintln(conn, migrationHandshakeV2); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := br.ReadString('\n'); err != nil { // RESUME 0 0
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("IOSM\x01")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the import handler block on the read

	sig <- os.Interrupt
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("run() hung on a wedged migration past the drain timeout")
	}
}

// TestMigrateStalledSuccessorRollsBack: a successor that accepts the
// connection but never speaks must not hang MIGRATE — each attempt times
// out, and after the final retry the server rolls back to serving.
func TestMigrateStalledSuccessorRollsBack(t *testing.T) {
	s := newServer("sat-S", obs.NewRegistry())
	s.ioTimeout = 100 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accept and say nothing
		}
	}()

	start := time.Now()
	if err := s.migrateTo(ln.Addr().String()); err == nil {
		t.Fatal("migration to a mute successor succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("migration took %v to fail — deadlines not armed", elapsed)
	}
	s.mu.Lock()
	serving := s.serving
	s.mu.Unlock()
	if !serving {
		t.Fatal("server did not roll back to serving after the final retry")
	}
	if got := s.m.migrations.With("out", "retry").Value(); got != migrateAttempts {
		t.Fatalf("retry counter = %d, want %d", got, migrateAttempts)
	}
}

// TestMigrationResumeAcrossConnections is the resumable-transfer story end
// to end: attempt 1 dies mid-stream, the receiver keeps the partial bytes,
// and attempt 2 resumes from the offered offsets instead of resending.
func TestMigrationResumeAcrossConnections(t *testing.T) {
	s, clientAddr, _ := startServer(t, "sat-R")
	s.ioTimeout = time.Second

	payload, err := json.Marshal(session{Seq: 42, Values: map[string]string{"k": "v"}, Users: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	half := len(payload) / 2

	// Attempt 1: v2 handshake, half the session state, then the link dies.
	c1, err := net.DialTimeout("tcp", clientAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	br1 := bufio.NewReader(c1)
	if _, err := fmt.Fprintln(c1, migrationHandshakeV2); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, br1); got != "RESUME 0 0" {
		t.Fatalf("fresh resume offer = %q, want RESUME 0 0", got)
	}
	if err := migrate.WriteFrame(c1, migrate.FrameSession, payload[:half]); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// The server notices the dead link and keeps the partial state.
	deadline := time.Now().Add(3 * time.Second)
	for s.m.migrations.With("in", "error").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the failed import")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Attempt 2: the resume offer reflects the received prefix; send the rest.
	c2, err := net.DialTimeout("tcp", clientAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	br2 := bufio.NewReader(c2)
	if _, err := fmt.Fprintln(c2, migrationHandshakeV2); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("RESUME 0 %d", half)
	if got := readLine(t, br2); got != want {
		t.Fatalf("resume offer = %q, want %q", got, want)
	}
	if err := migrate.SendStateResumable(c2, nil, payload, 0, half, 0); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, br2); got != "IMPORTED 42" {
		t.Fatalf("ack = %q, want IMPORTED 42", got)
	}

	s.mu.Lock()
	seq, v, users := s.state.Seq, s.state.Values["k"], len(s.state.Users)
	rx := s.rx
	s.mu.Unlock()
	if seq != 42 || v != "v" || users != 2 {
		t.Fatalf("resumed state wrong: seq=%d k=%q users=%d", seq, v, users)
	}
	if rx != nil {
		t.Fatal("resume buffer not cleared after a completed import")
	}
}

// TestV1MigrationStillAccepted: an old sender using the blind-push v1
// handshake must keep working against the new server.
func TestV1MigrationStillAccepted(t *testing.T) {
	_, clientAddr, _ := startServer(t, "sat-V")

	payload, err := json.Marshal(session{Seq: 7, Values: map[string]string{"x": "y"}})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", clientAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, migrationHandshake); err != nil {
		t.Fatal(err)
	}
	if err := migrate.SendStateResumable(conn, nil, payload, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, bufio.NewReader(conn)); got != "IMPORTED 7" {
		t.Fatalf("v1 ack = %q, want IMPORTED 7", got)
	}
}

func readLine(t *testing.T, br *bufio.Reader) string {
	t.Helper()
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(line)
}
