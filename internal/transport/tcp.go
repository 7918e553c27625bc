package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"whale/internal/tuple"
)

// TCPNetwork connects workers over real loopback TCP sockets, paying the
// real kernel network-stack cost per message — the cost the paper's Fig. 2d
// shows dominating the upstream instance's CPU in stock Storm.
type TCPNetwork struct {
	mu      sync.Mutex
	addrs   map[WorkerID]string
	workers map[WorkerID]*tcpTransport
	closed  bool
}

// NewTCPNetwork creates an empty TCP network on loopback.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{addrs: map[WorkerID]string{}, workers: map[WorkerID]*tcpTransport{}}
}

// Register implements Network: it starts a listener for the worker and a
// reader goroutine per inbound connection.
func (n *TCPNetwork) Register(id WorkerID, h Handler) (Transport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("transport: network closed")
	}
	if _, dup := n.workers[id]; dup {
		return nil, fmt.Errorf("transport: worker %d already registered", id)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &tcpTransport{
		net:     n,
		id:      id,
		ln:      ln,
		handler: h,
		conns:   map[WorkerID]*tcpConn{},
		done:    make(chan struct{}),
	}
	n.addrs[id] = ln.Addr().String()
	n.workers[id] = t
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Close implements Network.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	ws := make([]*tcpTransport, 0, len(n.workers))
	for _, w := range n.workers {
		ws = append(ws, w)
	}
	n.closed = true
	n.mu.Unlock()
	var first error
	for _, w := range ws {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (n *TCPNetwork) addrOf(id WorkerID) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.addrs[id]
	return a, ok
}

// tcpConn is one outbound connection with a buffered writer.
type tcpConn struct {
	mu  sync.Mutex
	c   net.Conn
	w   *bufio.Writer
	hdr [8]byte // frame-header scratch, written under mu
}

type tcpTransport struct {
	net     *TCPNetwork
	id      WorkerID
	ln      net.Listener
	handler Handler

	mu      sync.Mutex
	conns   map[WorkerID]*tcpConn
	inbound []net.Conn

	stats     Stats
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// frame: u32 sender id | u32 len | payload.
func (t *tcpTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		t.inbound = append(t.inbound, c)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

func (t *tcpTransport) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	r := bufio.NewReaderSize(c, 64<<10)
	var hdr [8]byte
	// The payloads are cut from receive chunks (tuple.Slab.Buf): each still
	// passes to the handler, which owns it from then on.
	var bufs tuple.Slab
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		from := WorkerID(binary.LittleEndian.Uint32(hdr[0:]))
		n := binary.LittleEndian.Uint32(hdr[4:])
		payload := bufs.Buf(int(n))
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}
		t.stats.MsgsRecv.Add(1)
		t.stats.BytesRecv.Add(int64(n))
		t.handler(from, payload)
	}
}

// Send implements Transport: it lazily dials the destination and writes one
// length-prefixed frame. The bufio writer is flushed per message — each
// message really traverses the kernel, as in stock Storm's per-tuple sends.
func (t *tcpTransport) Send(to WorkerID, payload []byte) error {
	conn, err := t.connTo(to)
	if err != nil {
		return err
	}
	return timedSend(&t.stats, len(payload), func() error {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		binary.LittleEndian.PutUint32(conn.hdr[0:], uint32(t.id))
		binary.LittleEndian.PutUint32(conn.hdr[4:], uint32(len(payload)))
		if _, err := conn.w.Write(conn.hdr[:]); err != nil {
			return err
		}
		if _, err := conn.w.Write(payload); err != nil {
			return err
		}
		return conn.w.Flush()
	})
}

func (t *tcpTransport) connTo(to WorkerID) (*tcpConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.conns[to]; ok {
		return c, nil
	}
	addr, ok := t.net.addrOf(to)
	if !ok {
		return nil, errUnknownWorker(to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	tc := &tcpConn{c: c, w: bufio.NewWriterSize(c, 64<<10)}
	t.conns[to] = tc
	return tc, nil
}

// Flush implements Transport (frames are flushed per send already).
func (t *tcpTransport) Flush() error { return nil }

// Pressure implements Transport. TCP buffering lives in the kernel socket
// buffers, which this transport cannot observe, so it reports no pressure.
func (t *tcpTransport) Pressure(WorkerID) int { return 0 }

// Stats implements Transport.
func (t *tcpTransport) Stats() *Stats { return &t.stats }

// Close implements Transport.
func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		t.ln.Close()
		t.mu.Lock()
		for _, c := range t.conns {
			c.c.Close()
		}
		for _, c := range t.inbound {
			c.Close()
		}
		t.mu.Unlock()
		t.wg.Wait()
	})
	return nil
}
