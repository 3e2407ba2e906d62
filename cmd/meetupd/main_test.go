package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestExecuteCommands(t *testing.T) {
	s := newServer("sat-T", obs.NewRegistry())
	tests := []struct {
		cmd        string
		wantPrefix string
		wantQuit   bool
	}{
		{"JOIN alice", "WELCOME alice@sat-T", false},
		{"SET score 42", "OK seq=2", false},
		{"GET score", "VALUE 42", false},
		{"GET missing", "MISSING", false},
		{"SET phrase hello world", "OK", false},
		{"GET phrase", "VALUE hello world", false},
		{"SEQ", "SEQ 3", false},
		{"", "ERR", false},
		{"FROB", "ERR unknown", false},
		{"JOIN", "ERR usage", false},
		{"SET only-key", "ERR usage", false},
		{"GET a b", "ERR usage", false},
		{"quit", "BYE", true},
	}
	for _, tc := range tests {
		reply, quit := s.execute(tc.cmd)
		if !strings.HasPrefix(reply, tc.wantPrefix) {
			t.Errorf("execute(%q) = %q, want prefix %q", tc.cmd, reply, tc.wantPrefix)
		}
		if quit != tc.wantQuit {
			t.Errorf("execute(%q) quit = %v", tc.cmd, quit)
		}
	}
}

func TestExecuteAfterMigration(t *testing.T) {
	s := newServer("sat-T", obs.NewRegistry())
	s.mu.Lock()
	s.serving = false
	s.mu.Unlock()
	reply, quit := s.execute("SET k v")
	if reply != "MOVED" || !quit {
		t.Fatalf("drained server replied %q quit=%v, want MOVED/true", reply, quit)
	}
}

// startServer spins up a full meetupd instance on ephemeral ports.
func startServer(t *testing.T, name string) (s *server, clientAddr, adminAddr string) {
	t.Helper()
	s = newServer(name, obs.NewRegistry())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); aln.Close() })
	go s.acceptLoop(ln, "client", s.handleClientOrMigration)
	go s.acceptLoop(aln, "admin", s.handleAdmin)
	return s, ln.Addr().String(), aln.Addr().String()
}

func roundTrip(t *testing.T, conn net.Conn, br *bufio.Reader, cmd string) string {
	t.Helper()
	if _, err := fmt.Fprintln(conn, cmd); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(line)
}

func TestFullMigrationInProcess(t *testing.T) {
	_, aClient, aAdmin := startServer(t, "sat-A")
	_, bClient, _ := startServer(t, "sat-B")

	// Populate A over a real socket.
	conn, err := net.DialTimeout("tcp", aClient, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if got := roundTrip(t, conn, br, "JOIN p1"); !strings.HasPrefix(got, "WELCOME") {
		t.Fatalf("JOIN: %q", got)
	}
	for i := 0; i < 25; i++ {
		if got := roundTrip(t, conn, br, fmt.Sprintf("SET k%d v%d", i, i)); !strings.HasPrefix(got, "OK") {
			t.Fatalf("SET: %q", got)
		}
	}
	seqA := roundTrip(t, conn, br, "SEQ")

	// Admin: status then migrate.
	adm, err := net.DialTimeout("tcp", aAdmin, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	abr := bufio.NewReader(adm)
	if got := roundTrip(t, adm, abr, "STATUS"); !strings.Contains(got, "serving=true") {
		t.Fatalf("STATUS: %q", got)
	}
	if got := roundTrip(t, adm, abr, "MIGRATE "+bClient); got != "MIGRATED" {
		t.Fatalf("MIGRATE: %q", got)
	}
	// A refuses writes now.
	if got := roundTrip(t, conn, br, "SET late v"); got != "MOVED" {
		t.Fatalf("post-migration write: %q", got)
	}

	// B carries the state.
	bc, err := net.DialTimeout("tcp", bClient, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	bbr := bufio.NewReader(bc)
	if got := roundTrip(t, bc, bbr, "SEQ"); got != seqA {
		t.Fatalf("SEQ after migration: %q, want %q", got, seqA)
	}
	if got := roundTrip(t, bc, bbr, "GET k7"); got != "VALUE v7" {
		t.Fatalf("GET k7: %q", got)
	}
}

func TestMigrateErrors(t *testing.T) {
	s, _, aAdmin := startServer(t, "sat-A")
	adm, err := net.DialTimeout("tcp", aAdmin, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	abr := bufio.NewReader(adm)
	// Unreachable successor: migration fails, server keeps serving.
	if got := roundTrip(t, adm, abr, "MIGRATE 127.0.0.1:1"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("migrate to dead port: %q", got)
	}
	s.mu.Lock()
	serving := s.serving
	s.mu.Unlock()
	if !serving {
		t.Fatal("server stopped serving after failed migration")
	}
	if got := roundTrip(t, adm, abr, "MIGRATE"); !strings.HasPrefix(got, "ERR usage") {
		t.Fatalf("bad usage: %q", got)
	}
	if got := roundTrip(t, adm, abr, "NOPE"); !strings.HasPrefix(got, "ERR unknown") {
		t.Fatalf("unknown admin: %q", got)
	}
}

func TestDoubleMigrationRefused(t *testing.T) {
	_, _, aAdmin := startServer(t, "sat-A")
	_, bClient, _ := startServer(t, "sat-B")
	adm, err := net.DialTimeout("tcp", aAdmin, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	abr := bufio.NewReader(adm)
	if got := roundTrip(t, adm, abr, "MIGRATE "+bClient); got != "MIGRATED" {
		t.Fatalf("first migration: %q", got)
	}
	if got := roundTrip(t, adm, abr, "MIGRATE "+bClient); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("second migration should fail: %q", got)
	}
}

// startFullServer runs a server through run() so shutdown paths are covered.
func startFullServer(t *testing.T, name string) (s *server, clientAddr string, sig chan os.Signal, done chan struct{}) {
	t.Helper()
	s = newServer(name, obs.NewRegistry())
	s.drainTimeout = 2 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig = make(chan os.Signal, 1)
	done = make(chan struct{})
	go func() {
		s.run(ln, aln, sig)
		close(done)
	}()
	return s, ln.Addr().String(), sig, done
}

func TestGracefulShutdownDrains(t *testing.T) {
	_, clientAddr, sig, done := startFullServer(t, "sat-G")

	conn, err := net.DialTimeout("tcp", clientAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if got := roundTrip(t, conn, br, "JOIN p1"); !strings.HasPrefix(got, "WELCOME") {
		t.Fatalf("JOIN: %q", got)
	}

	sig <- os.Interrupt

	// The listener closes: new connections are refused (allow a moment for
	// the accept loop to observe the close).
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", clientAddr, 200*time.Millisecond)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after shutdown signal")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The in-flight connection keeps working mid-drain...
	if got := roundTrip(t, conn, br, "SEQ"); !strings.HasPrefix(got, "SEQ") {
		t.Fatalf("command during drain: %q", got)
	}
	// ...and run() returns only after it finishes.
	select {
	case <-done:
		t.Fatal("run() returned while a connection was still open")
	case <-time.After(50 * time.Millisecond):
	}
	if got := roundTrip(t, conn, br, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT: %q", got)
	}
	conn.Close()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("run() did not return after connections drained")
	}
}

func TestGracefulShutdownTimeout(t *testing.T) {
	s, clientAddr, sig, done := startFullServer(t, "sat-H")
	s.drainTimeout = 100 * time.Millisecond

	// A client that never quits: drain must give up after the timeout.
	conn, err := net.DialTimeout("tcp", clientAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if got := roundTrip(t, conn, br, "JOIN lingerer"); !strings.HasPrefix(got, "WELCOME") {
		t.Fatalf("JOIN: %q", got)
	}
	sig <- os.Interrupt
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("run() hung past the drain timeout")
	}
}

func TestDebugEndpointMetrics(t *testing.T) {
	s, clientAddr, _ := startServer(t, "sat-M")

	// Generate some traffic so counters move.
	conn, err := net.DialTimeout("tcp", clientAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	roundTrip(t, conn, br, "JOIN alice")
	roundTrip(t, conn, br, "SET k v")
	roundTrip(t, conn, br, "GET k")

	srv := httptest.NewServer(obs.DebugMux(s.reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Valid Prometheus text exposition with at least 8 distinct families.
	families := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			families[parts[0]] = true
		}
	}
	if len(families) < 8 {
		t.Fatalf("only %d metric families exposed: %v\n%s", len(families), families, text)
	}
	for _, want := range []string{
		`meetupd_commands_total{verb="SET"} 1`,
		`meetupd_connections_total{kind="client"} 1`,
		"meetupd_seq 2",
		"meetupd_state_keys 1",
		"meetupd_state_users 1",
		"meetupd_serving 1",
		"# TYPE meetupd_migration_seconds summary",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	// JSON exposition round-trips.
	resp2, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap []obs.FamilySnapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatalf("JSON exposition invalid: %v", err)
	}
}

func TestMigrationMetrics(t *testing.T) {
	a, _, aAdmin := startServer(t, "sat-A")
	b, bClient, _ := startServer(t, "sat-B")

	conn, err := net.DialTimeout("tcp", bClient, time.Second) // populate via A? use admin below
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()

	adm, err := net.DialTimeout("tcp", aAdmin, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	abr := bufio.NewReader(adm)
	if got := roundTrip(t, adm, abr, "MIGRATE "+bClient); got != "MIGRATED" {
		t.Fatalf("MIGRATE: %q", got)
	}

	if got := a.m.migrations.With("out", "ok").Value(); got != 1 {
		t.Fatalf("A migrations out ok = %d, want 1", got)
	}
	if a.m.migBytes.With("out").Value() == 0 {
		t.Fatal("A migrated zero bytes")
	}
	if a.m.serving.Value() != 0 {
		t.Fatal("A serving gauge still 1 after migrating away")
	}
	// B observed the inbound migration; allow the handler goroutine to finish.
	deadline := time.Now().Add(2 * time.Second)
	for b.m.migrations.With("in", "ok").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("B never counted the inbound migration")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if b.m.serving.Value() != 1 {
		t.Fatal("B serving gauge not set after import")
	}
}
