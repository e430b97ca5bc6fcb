package stacks

import (
	"ulp/internal/kern"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/tcp"
)

// pktBuf shortens the segment buffer type in callback signatures.
type pktBuf = pkt.Buf

// Sock wraps a TCP engine connection with blocking semantics for
// application threads. Each organization supplies the cost hooks that make
// its structure visible: what a socket call costs to enter (trap, procedure
// call, or IPC) and what moving n bytes between application and protocol
// costs (copy, page remap, or nothing via shared memory).
type Sock struct {
	TC *tcp.Conn

	// Entry is charged once per socket call (Read/Write/Close).
	Entry func(t *kern.Thread)
	// Eng brackets engine invocations; nil means call directly.
	Eng Engine
	// WriteMove and ReadMove are charged per data movement of n bytes
	// between the application and the protocol's buffers.
	WriteMove func(t *kern.Thread, n int)
	ReadMove  func(t *kern.Thread, n int)

	readable    sim.Cond
	writable    sim.Cond
	established sim.Cond
	isEst       bool
	closed      bool
	err         error
}

// Engine is an organization's bracket around the invocations of one
// connection's engine: EnterEngine serializes entry and binds t as the
// driving thread for transmit charging, LeaveEngine undoes both. The two
// halves take the place of a function-running bracket so that a socket call
// needs no closure.
type Engine interface {
	EnterEngine(t *kern.Thread)
	LeaveEngine(t *kern.Thread)
}

// NewSock builds the wrapper; callers attach Callbacks() to the engine.
func NewSock(s *sim.Sim, tc *tcp.Conn) *Sock {
	k := new(Sock)
	k.Init(s, tc)
	return k
}

// Init makes k a fresh wrapper around tc in place, for a Sock embedded in a
// record that is reused: the cost hooks and Eng are cleared for the caller to
// set, the condition variables keep their arrays. Nobody may be blocked on k.
func (k *Sock) Init(s *sim.Sim, tc *tcp.Conn) {
	k.readable.Init(s)
	k.writable.Init(s)
	k.established.Init(s)
	*k = Sock{TC: tc, readable: k.readable, writable: k.writable, established: k.established}
}

// Callbacks returns the engine callbacks that drive the blocking
// machinery; send is the organization's transmit path.
func (s *Sock) Callbacks(send func(seg Seg)) tcp.Callbacks {
	return tcp.Callbacks{
		Send: func(b *pktBuf, h tcp.Header, pl int) {
			send(Seg{Buf: b, Hdr: h, PayloadLen: pl})
		},
		OnEstablished: func() {
			s.isEst = true
			s.established.Broadcast()
			s.writable.Broadcast()
		},
		OnReadable: func() { s.readable.Broadcast() },
		OnWritable: func() { s.writable.Broadcast() },
		OnClosed: func(err error) {
			s.closed = true
			s.err = MapError(err)
			s.readable.Broadcast()
			s.writable.Broadcast()
			s.established.Broadcast()
		},
	}
}

// MarkEstablished records that the connection arrived already established
// (a registry handoff restores the engine past the handshake, so the
// OnEstablished callback never fires locally).
func (s *Sock) MarkEstablished() { s.isEst = true }

// Closed reports whether the engine reached CLOSED, with its error.
func (s *Sock) Closed() (bool, error) { return s.closed, s.err }

// WaitEstablished blocks until the handshake completes or fails.
func (s *Sock) WaitEstablished(t *kern.Thread) error {
	for !s.isEst && !s.closed {
		s.established.Wait(t.Proc)
	}
	if s.closed && !s.isEst {
		if s.err != nil {
			return s.err
		}
		return ErrClosed
	}
	return nil
}

// ReadableWaiters reports threads blocked in Read, so input paths can
// charge their wakeup cost.
func (s *Sock) ReadableWaiters() int { return s.readable.Waiters() }

// enter and leave put an engine operation under the organization's bracket.
func (s *Sock) enter(t *kern.Thread) {
	if s.Eng != nil {
		s.Eng.EnterEngine(t)
	}
}

func (s *Sock) leave(t *kern.Thread) {
	if s.Eng != nil {
		s.Eng.LeaveEngine(t)
	}
}

// Read blocks until data or EOF; EOF returns (0, nil).
func (s *Sock) Read(t *kern.Thread, p []byte) (int, error) {
	if s.Entry != nil {
		s.Entry(t)
	}
	for {
		if n := s.TC.Readable(); n > 0 {
			s.enter(t)
			got := s.TC.Read(p)
			s.leave(t)
			if s.ReadMove != nil {
				s.ReadMove(t, got)
			}
			return got, nil
		}
		if s.TC.EOF() {
			return 0, nil
		}
		if s.closed {
			if s.err != nil {
				return 0, s.err
			}
			return 0, nil
		}
		s.readable.Wait(t.Proc)
	}
}

// Write blocks until all of p has been accepted by the send buffer.
func (s *Sock) Write(t *kern.Thread, p []byte) (int, error) {
	if s.Entry != nil {
		s.Entry(t)
	}
	total := 0
	for total < len(p) {
		if s.closed {
			if s.err != nil {
				return total, s.err
			}
			return total, ErrClosed
		}
		s.enter(t)
		n := s.TC.Write(p[total:])
		s.leave(t)
		if n > 0 {
			if s.WriteMove != nil {
				s.WriteMove(t, n)
			}
			total += n
			continue
		}
		s.writable.Wait(t.Proc)
	}
	return total, nil
}

// Close performs the orderly release.
func (s *Sock) Close(t *kern.Thread) error {
	if s.Entry != nil {
		s.Entry(t)
	}
	s.enter(t)
	s.TC.Close()
	s.leave(t)
	return nil
}

// Stats and State delegate to the engine.
func (s *Sock) Stats() tcp.Stats { return s.TC.Stats() }
func (s *Sock) State() tcp.State { return s.TC.State() }

// Seg is one outbound TCP segment handed to an organization's transmit
// path: the encoded segment bytes plus its parsed header for charging.
type Seg struct {
	Buf        *pktBuf
	Hdr        tcp.Header
	PayloadLen int
}
