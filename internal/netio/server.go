package netio

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// Server is the coordinator endpoint: it accepts site connections, decodes
// frames, and runs them through the coordinator's receive pipeline
// (durable.Receiver) under a mutex. It is safe for any number of
// concurrent site connections. Retransmitted frames and frames from dead
// incarnations are acked without re-applying, making delivery
// exactly-once in effect. With a durable.Store attached, every decodable
// frame is logged to the WAL *before* the dedupe verdict, so a
// crash-recovered server replays the byte stream through the identical
// path and lands on identical state. A frame the WAL refuses changes no
// state and is not acked: the server drops the connection, the site
// reconnects, and since the handshake watermark does not cover the frame,
// the site sends it again.
type Server struct {
	ln net.Listener
	// Logf receives connection-level errors; nil silences them. Set before
	// Serve is running.
	Logf func(format string, args ...any)

	mu         sync.Mutex // guards rcv and decodeErrs
	rcv        durable.Receiver
	decodeErrs int
	tele       serverTele
	// step is rcv.Step; tests swap it to inject faults.
	step func([]byte, transport.Message) durable.Result

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	wg        sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once
}

// serverTele holds the coordinator endpoint's instruments (all nil ⇒
// no-op).
type serverTele struct {
	tracer  *telemetry.Tracer
	hellos  *telemetry.Counter
	walErrs *telemetry.Counter
	rcv     durable.ReceiveTele // the receive counters, bumped by the Receiver
}

func newServerTele(reg *telemetry.Registry) serverTele {
	if reg == nil {
		return serverTele{}
	}
	return serverTele{
		tracer:  reg.Tracer(),
		hellos:  reg.Counter("srv.hellos"),
		walErrs: reg.Counter("srv.wal_errors"),
		rcv: durable.ReceiveTele{
			BytesIn:        reg.Counter("srv.bytes_in"),
			Applied:        reg.Counter("srv.applied"),
			ApplyErrors:    reg.Counter("srv.apply_errors"),
			Duplicates:     reg.Counter("srv.duplicates"),
			DuplicateBytes: reg.Counter("srv.duplicate_bytes"),
			SiteResets:     reg.Counter("srv.site_resets"),
		},
	}
}

// ServerOptions configures the optional server machinery.
type ServerOptions struct {
	// Telemetry registers srv.* instruments (nil ⇒ none).
	Telemetry *telemetry.Registry
	// Store, when non-nil, makes the server crash-durable: frames are
	// WAL-logged before applying and checkpoints rotate automatically.
	Store *durable.Store
	// Dedupe seeds the exactly-once table — pass the recovered table from
	// durable.Open so a restarted server drops already-applied
	// retransmissions. Nil starts empty.
	Dedupe *durable.Dedupe
}

// NewServer listens on addr ("host:port", ":0" for an ephemeral port) and
// serves the given coordinator until Close. Serving starts immediately in
// background goroutines.
func NewServer(addr string, coord *coordinator.Coordinator) (*Server, error) {
	return NewServerOpts(addr, coord, ServerOptions{})
}

// NewServerTelemetry is NewServer with receive-side srv.* instruments
// registered in reg (nil reg behaves exactly like NewServer). A separate
// constructor because NewServer starts accepting before it returns, so
// instruments cannot be attached after the fact without racing apply.
func NewServerTelemetry(addr string, coord *coordinator.Coordinator, reg *telemetry.Registry) (*Server, error) {
	return NewServerOpts(addr, coord, ServerOptions{Telemetry: reg})
}

// NewServerOpts is the full constructor: telemetry plus optional
// durability (a store and a recovered dedupe table from durable.Open).
func NewServerOpts(addr string, coord *coordinator.Coordinator, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ded := opts.Dedupe
	if ded == nil {
		ded = durable.NewDedupe()
	}
	tele := newServerTele(opts.Telemetry)
	s := &Server{
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
		closing: make(chan struct{}),
		rcv: durable.Receiver{
			Coord: coord, Dedupe: ded, Store: opts.Store,
			Tracer: tele.tracer, Tele: tele.rcv,
		},
		tele: tele,
	}
	s.step = s.rcv.Step
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	// Default: quiet about expected shutdown noise, loud otherwise.
	select {
	case <-s.closing:
	default:
		log.Printf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closing:
				return
			default:
				s.logf("netio: accept: %v", err)
				return
			}
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn handles one site connection: frame → decode → apply → ack
// (or hello → watermark reply).
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.connMu.Lock()
	if s.conns == nil { // closed while this connection raced Accept
		s.connMu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	for {
		payload, err := readFrame(conn)
		if err != nil {
			// EOF is the normal client hang-up; closed-connection errors
			// accompany shutdown. Anything else is worth a log line.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("netio: read from %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if err := s.respond(conn, payload); err != nil {
			s.logf("netio: conn %v: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

// respond processes one frame and writes its reply: a watermark ack for a
// hello, a one-byte status for everything else.
func (s *Server) respond(conn net.Conn, payload []byte) error {
	msg, err := transport.Decode(payload)
	if err != nil {
		s.logf("netio: decode: %v", err)
		s.mu.Lock()
		s.decodeErrs++
		s.mu.Unlock()
		s.tele.rcv.ApplyErrors.Inc()
		return writeAck(conn, false)
	}
	if msg.Kind == transport.MsgHello {
		s.mu.Lock()
		w := s.rcv.Dedupe.Watermark(msg.SiteID)
		s.mu.Unlock()
		s.tele.hellos.Inc()
		// Grant the trace-suffix capability only when the site asked for it
		// and this server actually has a tracer to receive the context.
		traced := msg.Count&helloTraceBit != 0 && s.tele.tracer != nil
		return writeWatermarkAck(conn, w.Epoch, w.MaxSeq, traced)
	}
	ok, err := s.apply(payload, msg)
	if err != nil {
		return err
	}
	return writeAck(conn, ok)
}

// apply runs one decoded message through the receive pipeline and
// reports whether to ack it: duplicates are acked without re-applying and
// a rejected apply is nacked. A WAL refusal is returned as an error, so
// the connection closes unacked and the site redelivers the frame.
func (s *Server) apply(payload []byte, msg transport.Message) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.step(payload, msg)
	if res.WALErr != nil {
		s.tele.walErrs.Inc()
		return false, fmt.Errorf("wal append, dropping connection for redelivery: %w", res.WALErr)
	}
	if res.Verdict == durable.AdmitNewEpoch {
		s.logf("netio: site %d returned with epoch %d, state reset", msg.SiteID, msg.Epoch)
	}
	if res.ApplyErr != nil {
		s.logf("netio: apply %v from site %d: %v", msg.Kind, msg.SiteID, res.ApplyErr)
	}
	if res.CheckpointErr != nil {
		// The previous generation stays armed; replay just gets longer.
		s.logf("netio: checkpoint: %v", res.CheckpointErr)
		s.tele.walErrs.Inc()
	}
	return res.ApplyErr == nil, nil
}

// Snapshot runs fn with the coordinator locked — the only safe way to read
// coordinator state while the server is live.
func (s *Server) Snapshot(fn func(*coordinator.Coordinator)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.rcv.Coord)
}

// Stats returns (bytes received, frames admitted, apply errors).
func (s *Server) Stats() (bytesIn, messages, applyErrors int) {
	d := s.DeliveryStats()
	return d.BytesIn, d.Applied, d.ApplyErrors
}

// ServerStats is the coordinator-side delivery accounting: the receive
// pipeline's counters, with undecodable frames also counted in
// ApplyErrors.
type ServerStats = durable.ReceiveStats

// DeliveryStats returns the full fault-tolerance counters.
func (s *Server) DeliveryStats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.rcv.Stats()
	st.ApplyErrors += s.decodeErrs
	return st
}

// Close stops accepting, severs every live site connection and waits for
// the connection goroutines to drain. With a store attached the WAL is
// flushed and closed but no checkpoint is written — restart replays the
// tail; Shutdown is the graceful path.
func (s *Server) Close() error {
	err := s.sever()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rcv.Store != nil {
		if cerr := s.rcv.Store.Close(); err == nil {
			err = cerr
		}
		s.rcv.Store = nil
	}
	return err
}

// Shutdown is the graceful stop: it stops accepting, waits up to timeout
// for connected sites to hang up on their own, severs stragglers, then
// writes a final checkpoint so the next start replays an empty WAL.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.closeOnce.Do(func() { close(s.closing) })
	err := s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.sever() //nolint:errcheck — listener error already captured
		<-done
	}
	s.connMu.Lock()
	s.conns = nil
	s.connMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.rcv.Store; st != nil {
		if cerr := st.Checkpoint(s.rcv.Coord, s.rcv.Dedupe); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.rcv.Store = nil
	}
	return err
}

// sever closes the listener and every live connection, then waits for the
// connection goroutines.
func (s *Server) sever() error {
	s.closeOnce.Do(func() { close(s.closing) })
	err := s.ln.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = nil
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}
