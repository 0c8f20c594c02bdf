package mqtt

import (
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The in-process transport. NewBroker("pipe:") serves on a fresh address
// "pipe:N" registered in this process, and Dial("pipe:N") connects to it
// through the registry below: the same MQTT bytes as over TCP, framed,
// parsed and acknowledged the same way, without a socket or a system
// call. Any other address is TCP.

// pipeScheme prefixes every in-process address.
const pipeScheme = "pipe:"

// pipeBufSize bounds the bytes one direction of a pipe conn holds
// unread. A write blocks at the bound until the reader takes some, so a
// stalled reader pushes back on its writer as a full socket buffer does.
const pipeBufSize = 256 << 10

// pipes is the registry of open in-process listeners, by address.
var pipes = struct {
	sync.Mutex
	last int
	open map[string]*pipeListener
}{open: make(map[string]*pipeListener)}

// listen opens a listener on addr: in process for "pipe:", TCP otherwise.
func listen(addr string) (net.Listener, error) {
	if !strings.HasPrefix(addr, pipeScheme) {
		return net.Listen("tcp", addr)
	}
	if addr != pipeScheme {
		return nil, fmt.Errorf("in-process listen on %q: the address is assigned, pass %q", addr, pipeScheme)
	}
	pipes.Lock()
	defer pipes.Unlock()
	pipes.last++
	l := &pipeListener{
		addr:  pipeAddr(pipeScheme + strconv.Itoa(pipes.last)),
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
	pipes.open[string(l.addr)] = l
	return l, nil
}

// dial connects to addr: through the registry for an in-process address,
// over TCP otherwise. An in-process address nobody listens on is refused
// as a closed TCP port is.
func dial(addr string) (net.Conn, error) {
	if !strings.HasPrefix(addr, pipeScheme) {
		return net.Dial("tcp", addr)
	}
	refused := &net.OpError{Op: "dial", Net: "pipe", Addr: pipeAddr(addr), Err: syscall.ECONNREFUSED}
	pipes.Lock()
	l := pipes.open[addr]
	pipes.Unlock()
	if l == nil {
		return nil, refused
	}
	up, down := newPipeHalf(), newPipeHalf()
	client := newPipeConn(down, up, pipeAddr("pipe"), l.addr)
	server := newPipeConn(up, down, l.addr, pipeAddr("pipe"))
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, refused
	}
}

// pipeAddr is an in-process address.
type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

// pipeListener hands each dialled conn's server end to Accept.
type pipeListener struct {
	addr    pipeAddr
	conns   chan net.Conn // unbuffered: a Dial returns once Accept has its conn
	done    chan struct{}
	closing sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close unblocks Accept and unregisters the address, so a later Dial is
// refused. Conns already accepted stay open.
func (l *pipeListener) Close() error {
	err := net.ErrClosed
	l.closing.Do(func() {
		pipes.Lock()
		delete(pipes.open, string(l.addr))
		pipes.Unlock()
		close(l.done)
		err = nil
	})
	return err
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

// pipeHalf is one direction of a pipe conn: the bytes its writer end has
// sent and its reader end not yet taken.
type pipeHalf struct {
	mu   sync.Mutex
	buf  []byte // the unread bytes are buf[off:]
	off  int
	shut bool // the writer end sends nothing more: the reader drains, then reads EOF
	gone bool // the reader end is closed: writes fail
	// readable and writable (capacity 1) are signalled when bytes arrive
	// or shut is set, and when room frees up or gone is set. A woken
	// waiter re-checks the state under mu.
	readable, writable chan struct{}
}

func newPipeHalf() *pipeHalf {
	return &pipeHalf{readable: make(chan struct{}, 1), writable: make(chan struct{}, 1)}
}

func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// pipeConn is one end of an in-process byte stream: it reads rx and
// writes tx, which the other end reads. Unlike net.Pipe it is buffered
// (to pipeBufSize per direction) and half-closable, like a loopback
// socket. A Write is not atomic against another Write on the same end;
// Broker and Client each keep one writer per conn.
type pipeConn struct {
	rx, tx        *pipeHalf
	local, remote pipeAddr
	rd, wd        deadline
	closed        chan struct{}
	closing       sync.Once
}

func newPipeConn(rx, tx *pipeHalf, local, remote pipeAddr) *pipeConn {
	c := &pipeConn{rx: rx, tx: tx, local: local, remote: remote, closed: make(chan struct{})}
	c.rd.passed = make(chan struct{})
	c.wd.passed = make(chan struct{})
	return c
}

func (c *pipeConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	h := c.rx
	for {
		if c.rd.expired() {
			return 0, os.ErrDeadlineExceeded
		}
		h.mu.Lock()
		if h.gone {
			h.mu.Unlock()
			return 0, net.ErrClosed
		}
		if h.off < len(h.buf) {
			n := copy(p, h.buf[h.off:])
			h.off += n
			more := h.off < len(h.buf)
			if !more {
				h.buf, h.off = h.buf[:0], 0
			}
			h.mu.Unlock()
			signal(h.writable)
			if more {
				signal(h.readable) // for another Read waiting on this end
			}
			return n, nil
		}
		shut := h.shut
		h.mu.Unlock()
		if shut {
			signal(h.readable)
			return 0, io.EOF
		}
		select {
		case <-h.readable:
		case <-c.rd.wait():
		case <-c.closed:
		}
	}
}

func (c *pipeConn) Write(p []byte) (int, error) {
	h := c.tx
	n := 0
	for {
		if c.wd.expired() {
			return n, os.ErrDeadlineExceeded
		}
		h.mu.Lock()
		if h.shut {
			h.mu.Unlock()
			return n, net.ErrClosed
		}
		if h.gone {
			h.mu.Unlock()
			signal(h.writable)
			return n, io.ErrClosedPipe
		}
		room := pipeBufSize - (len(h.buf) - h.off)
		k := min(room, len(p)-n)
		if k > 0 {
			if h.off > 0 && len(h.buf)+k > cap(h.buf) {
				h.buf, h.off = h.buf[:copy(h.buf, h.buf[h.off:])], 0
			}
			h.buf = append(h.buf, p[n:n+k]...)
			n += k
		}
		h.mu.Unlock()
		if k > 0 {
			signal(h.readable)
		}
		if n == len(p) {
			return n, nil
		}
		select {
		case <-h.writable:
		case <-c.wd.wait():
		case <-c.closed:
		}
	}
}

// CloseWrite ends the stream this end writes: the other end reads
// everything already written, then EOF. Reads on this end go on.
func (c *pipeConn) CloseWrite() error {
	select {
	case <-c.closed:
		return net.ErrClosed
	default:
	}
	c.tx.mu.Lock()
	c.tx.shut = true
	c.tx.mu.Unlock()
	signal(c.tx.readable)
	return nil
}

// Close fails this end's reads and writes and the other end's writes;
// the other end still reads what this end wrote, then EOF.
func (c *pipeConn) Close() error {
	err := net.ErrClosed
	c.closing.Do(func() {
		c.rx.mu.Lock()
		c.rx.gone = true
		c.rx.buf, c.rx.off = nil, 0
		c.rx.mu.Unlock()
		signal(c.rx.writable)
		c.tx.mu.Lock()
		c.tx.shut = true
		c.tx.mu.Unlock()
		signal(c.tx.readable)
		close(c.closed) // after the state it wakes this end's waiters to
		err = nil
	})
	return err
}

func (c *pipeConn) LocalAddr() net.Addr  { return c.local }
func (c *pipeConn) RemoteAddr() net.Addr { return c.remote }

func (c *pipeConn) SetDeadline(t time.Time) error {
	c.rd.set(t)
	c.wd.set(t)
	return nil
}

func (c *pipeConn) SetReadDeadline(t time.Time) error  { c.rd.set(t); return nil }
func (c *pipeConn) SetWriteDeadline(t time.Time) error { c.wd.set(t); return nil }

// deadline is a settable point in time whose channel passed closes when
// it passes. Setting it again keeps the channel unless it had already
// closed, so a Read or Write blocked on it sees the new deadline, past
// or future.
type deadline struct {
	mu     sync.Mutex
	timer  *time.Timer
	passed chan struct{}
}

func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.passed // the timer fired: wait for it to close the channel
	}
	d.timer = nil
	dur := time.Until(t)
	if !t.IsZero() && dur <= 0 {
		if !isClosed(d.passed) {
			close(d.passed)
		}
		return
	}
	if isClosed(d.passed) {
		d.passed = make(chan struct{})
	}
	if !t.IsZero() {
		passed := d.passed
		d.timer = time.AfterFunc(dur, func() { close(passed) })
	}
}

func (d *deadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.passed
}

func (d *deadline) expired() bool { return isClosed(d.wait()) }

func isClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}
