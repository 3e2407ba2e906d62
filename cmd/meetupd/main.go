// Command meetupd is a real TCP "meetup server" demonstrating virtual
// stationarity end to end: it hosts shared session state for multiple
// clients and can live-migrate that state to a successor meetupd instance
// over the migrate wire protocol — the software path a satellite-server
// would run before its hand-off.
//
// Client protocol (one command per line):
//
//	JOIN <name>        register a participant
//	SET <key> <value>  write shared state
//	GET <key>          read shared state (reply: VALUE <v> | MISSING)
//	SEQ                reply the state sequence number
//	QUIT               close the connection
//
// Admin protocol on -admin (one command per line):
//
//	MIGRATE <host:port>  push state to the successor and drain
//	STATUS               reply state size and sequence
//
// A second instance started with the same flags receives the state
// automatically: migration connections are recognised by a handshake line.
// Handshake version 2 ("IOSM-MIGRATION/2") is resumable: the receiver
// replies "RESUME <generic> <session>" with the byte offsets it already
// holds from an interrupted attempt, and the sender continues from there.
// Version 1 (blind push) is still accepted for old senders.
//
// Every migration socket operation carries an -iotimeout deadline, so a
// wedged peer cannot hold a handler — or shutdown — hostage: when the
// -draintimeout expires, remaining connections get their deadlines forced
// and drain completes.
//
// With -debug addr the server exposes /metrics (Prometheus text, or
// ?format=json), /healthz, /debug/vars, and /debug/pprof on that address.
// SIGINT/SIGTERM drains gracefully: listeners close, in-flight connections
// get -draintimeout to finish, and the final metrics snapshot is logged.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/migrate"
	"repro/internal/obs"
)

const (
	migrationHandshake   = "IOSM-MIGRATION/1"
	migrationHandshakeV2 = "IOSM-MIGRATION/2"

	// migrateAttempts bounds how often an outbound migration retries a
	// failed transfer before rolling back to serving.
	migrateAttempts = 3
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:7070", "client listen address")
		admin  = flag.String("admin", "127.0.0.1:7071", "admin listen address")
		name   = flag.String("name", "sat-A", "server name (shown in replies)")
		debug  = flag.String("debug", "", "debug listen address for /metrics, /healthz, /debug/pprof (empty = off)")
		drain  = flag.Duration("draintimeout", 5*time.Second, "how long shutdown waits for in-flight connections")
		ioTO   = flag.Duration("iotimeout", 10*time.Second, "per-operation socket deadline on migration transfers (0 = none)")
	)
	flag.Parse()

	srv := newServer(*name, obs.Default())
	srv.drainTimeout = *drain
	srv.ioTimeout = *ioTO
	migrate.SetTracer(srv.tracer)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("meetupd: listen: %v", err)
	}
	aln, err := net.Listen("tcp", *admin)
	if err != nil {
		log.Fatalf("meetupd: admin listen: %v", err)
	}

	if *debug != "" {
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			log.Fatalf("meetupd: debug listen: %v", err)
		}
		obs.RegisterRuntimeMetrics(srv.reg) // refreshed by the mux's pre-scrape hook
		mux := obs.DebugMux(srv.reg)
		go func() {
			if err := http.Serve(dln, mux); err != nil {
				log.Printf("meetupd: debug server: %v", err)
			}
		}()
		log.Printf("meetupd %s: debug endpoint on http://%s/metrics", *name, dln.Addr())
	}

	log.Printf("meetupd %s: clients on %s, admin on %s", *name, ln.Addr(), aln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	srv.run(ln, aln, sig)
}

// session is the migratable application state: a shared key-value world
// plus a sequence number, the "session-specific state" of §5.
type session struct {
	Seq    uint64            `json:"seq"`
	Values map[string]string `json:"values"`
	Users  []string          `json:"users"`
}

// metrics holds the server's instrument handles; families live on the
// registry passed to newServer (obs.Default() in production, a fresh
// registry in tests).
type metrics struct {
	conns      *obs.CounterVec // meetupd_connections_total{kind}
	commands   *obs.CounterVec // meetupd_commands_total{verb}
	migrations *obs.CounterVec // meetupd_migrations_total{direction,result}
	migBytes   *obs.CounterVec // meetupd_migration_bytes_total{direction}
	migSeconds *obs.Quantile   // meetupd_migration_seconds
	stateKeys  *obs.Gauge      // meetupd_state_keys
	stateUsers *obs.Gauge      // meetupd_state_users
	seq        *obs.Gauge      // meetupd_seq
	serving    *obs.Gauge      // meetupd_serving
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		conns: reg.CounterVec("meetupd_connections_total",
			"Accepted connections by kind.", "kind"),
		commands: reg.CounterVec("meetupd_commands_total",
			"Client commands executed by verb.", "verb"),
		migrations: reg.CounterVec("meetupd_migrations_total",
			"State migrations by direction and result.", "direction", "result"),
		migBytes: reg.CounterVec("meetupd_migration_bytes_total",
			"Session-state payload bytes migrated.", "direction"),
		migSeconds: reg.Quantile("meetupd_migration_seconds",
			"Wall time of state migrations."),
		stateKeys:  reg.Gauge("meetupd_state_keys", "Keys in the shared session state."),
		stateUsers: reg.Gauge("meetupd_state_users", "Participants joined to the session."),
		seq:        reg.Gauge("meetupd_seq", "Session state sequence number."),
		serving:    reg.Gauge("meetupd_serving", "1 while authoritative for the session, 0 after migrating away."),
	}
	// Pre-create the label series the demo always reports, so a scrape of a
	// fresh server already shows them at zero.
	for _, kind := range []string{"client", "admin", "migration"} {
		m.conns.With(kind)
	}
	for _, verb := range commandVerbs {
		m.commands.With(verb)
	}
	for _, dir := range []string{"in", "out"} {
		m.migBytes.With(dir)
	}
	return m
}

var commandVerbs = []string{"JOIN", "SET", "GET", "SEQ", "QUIT"}

type server struct {
	name         string
	reg          *obs.Registry
	m            *metrics
	tracer       *obs.Tracer
	drainTimeout time.Duration
	ioTimeout    time.Duration // per-operation migration socket deadline

	closing atomic.Bool    // shutdown started: accept-loop errors are expected
	connWG  sync.WaitGroup // in-flight connection handlers

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // open connections, for forced-drain deadlines

	importMu sync.Mutex // serialises inbound migrations

	mu      sync.Mutex
	state   session
	serving bool // false after migrating away
	// rx holds a partially received inbound migration across connections,
	// so an interrupted transfer resumes instead of restarting.
	rx *migrate.Receiver
}

func newServer(name string, reg *obs.Registry) *server {
	s := &server{
		name:         name,
		reg:          reg,
		m:            newMetrics(reg),
		tracer:       obs.NewTracer(nil),
		drainTimeout: 5 * time.Second,
		ioTimeout:    10 * time.Second,
		conns:        map[net.Conn]struct{}{},
		state:        session{Values: map[string]string{}},
		serving:      true,
	}
	s.m.serving.Set(1)
	return s
}

// run serves both listeners until a signal arrives, then drains: close the
// listeners (no new connections), give in-flight handlers drainTimeout to
// finish, and log the final metrics snapshot.
func (s *server) run(ln, aln net.Listener, sig <-chan os.Signal) {
	var accept sync.WaitGroup
	accept.Add(2)
	go func() { defer accept.Done(); s.acceptLoop(ln, "client", s.handleClientOrMigration) }()
	go func() { defer accept.Done(); s.acceptLoop(aln, "admin", s.handleAdmin) }()

	got := <-sig
	log.Printf("meetupd %s: %v received, draining", s.name, got)
	s.closing.Store(true)
	ln.Close()
	aln.Close()
	accept.Wait()

	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	select {
	case <-done:
		log.Printf("meetupd %s: all connections drained", s.name)
	case <-time.After(s.drainTimeout):
		// A wedged peer (e.g. a stalled migration) must not hold shutdown
		// hostage: force every remaining connection's deadline so blocked
		// reads and writes fail now, then wait for the handlers to exit.
		n := s.forceDeadlines()
		log.Printf("meetupd %s: drain timeout (%v) expired, forcing %d connection(s) closed", s.name, s.drainTimeout, n)
		<-done
	}

	var final strings.Builder
	if err := s.reg.WritePrometheus(&final); err == nil {
		log.Printf("meetupd %s: final metrics snapshot:\n%s", s.name, final.String())
	}
}

func (s *server) acceptLoop(ln net.Listener, kind string, handle func(net.Conn)) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !s.closing.Load() {
				log.Printf("meetupd: accept: %v", err)
			}
			return
		}
		s.m.conns.With(kind).Inc()
		s.connWG.Add(1)
		s.track(conn)
		go func() {
			defer s.connWG.Done()
			defer s.untrack(conn)
			handle(conn)
		}()
	}
}

// track registers an open connection for forced-drain deadlines.
func (s *server) track(conn net.Conn) {
	s.connMu.Lock()
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
}

func (s *server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// forceDeadlines sets an already-expired deadline on every tracked
// connection so any blocked read or write fails immediately; it returns
// how many connections were forced.
func (s *server) forceDeadlines() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for conn := range s.conns {
		conn.SetDeadline(time.Now())
	}
	return len(s.conns)
}

// handleClientOrMigration peeks the first line: a migration handshake makes
// this connection a state import (v2 is resumable); anything else is a
// client command stream.
func (s *server) handleClientOrMigration(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	first, err := br.ReadString('\n')
	if err != nil {
		return
	}
	switch strings.TrimSpace(first) {
	case migrationHandshake:
		s.m.conns.With("migration").Inc()
		s.importState(conn, br, false)
	case migrationHandshakeV2:
		s.m.conns.With("migration").Inc()
		s.importState(conn, br, true)
	default:
		s.serveClient(conn, br, first)
	}
}

// importState receives a migration push. For a v2 (resumable) sender it
// first replies the generic/session byte offsets already held, so an
// interrupted transfer continues instead of restarting; partial state
// survives in s.rx across connections. Every socket operation carries the
// io timeout, so a wedged sender cannot pin the handler.
func (s *server) importState(conn net.Conn, br *bufio.Reader, resumable bool) {
	start := time.Now()
	// One import at a time: concurrent senders would interleave frames
	// into the shared resume buffer.
	s.importMu.Lock()
	defer s.importMu.Unlock()

	s.mu.Lock()
	rx := s.rx
	if rx == nil || !resumable {
		// v1 senders always restart from scratch: they cannot skip the
		// prefix we already hold, so appending would corrupt the state.
		rx = &migrate.Receiver{}
		s.rx = rx
	}
	s.mu.Unlock()

	if resumable {
		g, sess := rx.Offsets()
		w := migrate.TimeoutWriter(conn, conn, s.ioTimeout)
		if _, err := fmt.Fprintf(w, "RESUME %d %d\n", g, sess); err != nil {
			log.Printf("meetupd %s: resume offer failed: %v", s.name, err)
			return
		}
	}
	if err := rx.Receive(migrate.TimeoutReader(br, conn, s.ioTimeout)); err != nil {
		s.m.migrations.With("in", "error").Inc()
		log.Printf("meetupd %s: state import failed (will resume at %v): %v", s.name, offsetString(rx), err)
		return
	}
	var st session
	if err := json.Unmarshal(rx.Session, &st); err != nil {
		s.m.migrations.With("in", "error").Inc()
		log.Printf("meetupd %s: state decode failed: %v", s.name, err)
		s.mu.Lock()
		s.rx = nil // assembled state is broken; a retry must start over
		s.mu.Unlock()
		return
	}
	generic := rx.Generic
	s.mu.Lock()
	s.state = st
	s.serving = true
	s.rx = nil
	s.mu.Unlock()
	s.m.migrations.With("in", "ok").Inc()
	s.m.migBytes.With("in").Add(uint64(len(generic) + len(rx.Session)))
	s.m.migSeconds.Observe(time.Since(start).Seconds())
	s.setStateGauges(st, true)
	log.Printf("meetupd %s: imported state (seq=%d, %d keys, %d B generic)", s.name, st.Seq, len(st.Values), len(generic))
	fmt.Fprintf(migrate.TimeoutWriter(conn, conn, s.ioTimeout), "IMPORTED %d\n", st.Seq)
}

func offsetString(rx *migrate.Receiver) string {
	g, sess := rx.Offsets()
	return fmt.Sprintf("generic=%d session=%d", g, sess)
}

// setStateGauges publishes the session shape; call with a copy, outside mu.
func (s *server) setStateGauges(st session, serving bool) {
	s.m.stateKeys.Set(float64(len(st.Values)))
	s.m.stateUsers.Set(float64(len(st.Users)))
	s.m.seq.Set(float64(st.Seq))
	if serving {
		s.m.serving.Set(1)
	} else {
		s.m.serving.Set(0)
	}
}

func (s *server) serveClient(conn net.Conn, br *bufio.Reader, first string) {
	line := first
	for {
		reply, quit := s.execute(strings.TrimSpace(line))
		if _, err := fmt.Fprintln(conn, reply); err != nil || quit {
			return
		}
		var err error
		line, err = br.ReadString('\n')
		if err != nil {
			return
		}
	}
}

// countVerb bounds the verb label to the known command set.
func (s *server) countVerb(verb string) {
	switch verb {
	case "JOIN", "SET", "GET", "SEQ", "QUIT":
		s.m.commands.With(verb).Inc()
	default:
		s.m.commands.With("other").Inc()
	}
}

func (s *server) execute(line string) (reply string, quit bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		s.countVerb("other")
		return "ERR empty command", false
	}
	verb := strings.ToUpper(fields[0])
	s.countVerb(verb)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.serving {
		return "MOVED", true // the client must re-resolve the successor
	}
	switch verb {
	case "JOIN":
		if len(fields) != 2 {
			return "ERR usage: JOIN <name>", false
		}
		s.state.Users = append(s.state.Users, fields[1])
		s.state.Seq++
		s.m.stateUsers.Set(float64(len(s.state.Users)))
		s.m.seq.Set(float64(s.state.Seq))
		return fmt.Sprintf("WELCOME %s@%s seq=%d", fields[1], s.name, s.state.Seq), false
	case "SET":
		if len(fields) < 3 {
			return "ERR usage: SET <key> <value>", false
		}
		s.state.Values[fields[1]] = strings.Join(fields[2:], " ")
		s.state.Seq++
		s.m.stateKeys.Set(float64(len(s.state.Values)))
		s.m.seq.Set(float64(s.state.Seq))
		return fmt.Sprintf("OK seq=%d", s.state.Seq), false
	case "GET":
		if len(fields) != 2 {
			return "ERR usage: GET <key>", false
		}
		if v, ok := s.state.Values[fields[1]]; ok {
			return "VALUE " + v, false
		}
		return "MISSING", false
	case "SEQ":
		return fmt.Sprintf("SEQ %d", s.state.Seq), false
	case "QUIT":
		return "BYE", true
	}
	return "ERR unknown command", false
}

func (s *server) handleAdmin(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "STATUS":
			s.mu.Lock()
			fmt.Fprintf(conn, "STATUS serving=%v seq=%d keys=%d users=%d\n",
				s.serving, s.state.Seq, len(s.state.Values), len(s.state.Users))
			s.mu.Unlock()
		case "MIGRATE":
			if len(fields) != 2 {
				fmt.Fprintln(conn, "ERR usage: MIGRATE <host:port>")
				continue
			}
			if err := s.migrateTo(fields[1]); err != nil {
				fmt.Fprintf(conn, "ERR %v\n", err)
				continue
			}
			fmt.Fprintln(conn, "MIGRATED")
		default:
			fmt.Fprintln(conn, "ERR unknown admin command")
		}
	}
}

// migrateTo pushes the session to the successor and stops serving — the
// stop-and-copy cut-over of a live migration (the pre-copy rounds are
// implicit here: session state is small, per §5's session/generic split).
// Transfers use the resumable v2 handshake and retry up to migrateAttempts
// times, continuing from the bytes the successor already holds; only after
// the final attempt fails does the server roll back to serving, so a flaky
// link degrades to a delayed hand-off rather than a lost session.
func (s *server) migrateTo(addr string) error {
	start := time.Now()
	outcome := "error"
	defer func() { s.m.migrations.With("out", outcome).Inc() }()

	s.mu.Lock()
	if !s.serving {
		s.mu.Unlock()
		return fmt.Errorf("already migrated away")
	}
	payload, err := json.Marshal(s.state)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.serving = false // cut-over: stop accepting writes
	s.mu.Unlock()
	s.m.serving.Set(0)

	var lastErr error
	for attempt := 1; attempt <= migrateAttempts; attempt++ {
		ack, err := s.pushState(addr, payload)
		if err == nil {
			outcome = "ok"
			s.m.migBytes.With("out").Add(uint64(len(payload)))
			s.m.migSeconds.Observe(time.Since(start).Seconds())
			log.Printf("meetupd %s: migrated to %s (%s)", s.name, addr, ack)
			return nil
		}
		lastErr = err
		s.m.migrations.With("out", "retry").Inc()
		log.Printf("meetupd %s: migration attempt %d/%d to %s failed: %v", s.name, attempt, migrateAttempts, addr, err)
	}

	s.mu.Lock()
	s.serving = true // roll back: the successor never took over
	s.mu.Unlock()
	s.m.serving.Set(1)
	return fmt.Errorf("after %d attempts: %w", migrateAttempts, lastErr)
}

// pushState runs one transfer attempt: dial, v2 handshake, resume from the
// successor's offsets, send, and await the IMPORTED ack. Every operation
// carries the io timeout so a wedged successor fails the attempt instead
// of hanging the admin handler.
func (s *server) pushState(addr string, payload []byte) (ack string, err error) {
	dialTO := s.ioTimeout
	conn, err := net.DialTimeout("tcp", addr, dialTO)
	if err != nil {
		return "", fmt.Errorf("dial successor: %w", err)
	}
	defer conn.Close()

	w := migrate.TimeoutWriter(conn, conn, s.ioTimeout)
	br := bufio.NewReader(migrate.TimeoutReader(conn, conn, s.ioTimeout))
	if _, err := fmt.Fprintln(w, migrationHandshakeV2); err != nil {
		return "", err
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("resume offer: %w", err)
	}
	var genericOff, sessionOff int
	if _, err := fmt.Sscanf(line, "RESUME %d %d", &genericOff, &sessionOff); err != nil {
		return "", fmt.Errorf("bad resume offer %q: %w", strings.TrimSpace(line), err)
	}
	if err := migrate.SendStateResumable(w, nil, payload, genericOff, sessionOff, 0); err != nil {
		return "", err
	}
	line, err = br.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("successor ack: %w", err)
	}
	return strings.TrimSpace(line), nil
}

// Ensure log goes to stderr so stdout stays machine-readable if piped.
func init() { log.SetOutput(os.Stderr) }
