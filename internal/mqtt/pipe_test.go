package mqtt

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// The in-process conn must behave like a loopback socket where Broker and
// Client rely on one: bounded buffering, deadlines, half-close, close and
// refused dials. Every blocking step here is bounded by await, so a
// broken mechanism fails the test instead of hanging it.

// pipePair returns both ends of one in-process conn.
func pipePair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := listen(pipeScheme)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

// await runs f on its own goroutine and returns its error, failing the
// test if f has not returned within 5 s.
func await(t *testing.T, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5 s", what)
		return nil
	}
}

func readAll(t *testing.T, c net.Conn) []byte {
	t.Helper()
	var got []byte
	err := await(t, "read to EOF", func() (err error) {
		got, err = io.ReadAll(c)
		return err
	})
	if err != nil {
		t.Fatalf("read to EOF: %v", err)
	}
	return got
}

func TestPipeWriteBlocksAtBoundUntilRead(t *testing.T) {
	c, s := pipePair(t)
	if n, err := c.Write(bytes.Repeat([]byte{'a'}, pipeBufSize)); n != pipeBufSize || err != nil {
		t.Fatalf("write up to the bound: %d, %v", n, err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte{'z'})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("a write past the %d-byte bound returned (%v) before anything was read", pipeBufSize, err)
	case <-time.After(50 * time.Millisecond):
	}
	head := make([]byte, 1024)
	if _, err := io.ReadFull(s, head); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked write resumed with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a read freed room but the blocked write did not resume")
	}
	_ = c.Close()
	rest := readAll(t, s)
	if len(rest) != pipeBufSize-len(head)+1 || rest[len(rest)-1] != 'z' {
		t.Fatalf("after the head, read %d bytes ending %q; want %d ending 'z'", len(rest), rest[len(rest)-1:], pipeBufSize-len(head)+1)
	}
}

func TestPipeDeadlines(t *testing.T) {
	c, s := pipePair(t)
	buf := make([]byte, 8)
	read := func() error { _, err := c.Read(buf); return err }

	_ = c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if err := await(t, "read past its deadline", read); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	_ = c.SetReadDeadline(time.Time{})
	if _, err := s.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := await(t, "read after clearing the deadline", read); err != nil || buf[0] != 'a' {
		t.Fatalf("read after clearing the deadline: %v, %q", err, buf[:1])
	}

	// A deadline set while a reader is blocked wakes it: one already past
	// at once, one in the future when it passes.
	for _, d := range []time.Duration{-time.Second, 30 * time.Millisecond} {
		done := make(chan error, 1)
		go func() { done <- read() }()
		time.Sleep(20 * time.Millisecond) // let the reader block
		_ = c.SetReadDeadline(time.Now().Add(d))
		if err := await(t, "blocked read after SetReadDeadline", func() error { return <-done }); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("blocked read after SetReadDeadline(now%+v): %v, want os.ErrDeadlineExceeded", d, err)
		}
	}

	if _, err := c.Write(make([]byte, pipeBufSize)); err != nil {
		t.Fatal(err)
	}
	_ = c.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	var n int
	err := await(t, "write past its deadline", func() (err error) {
		n, err = c.Write([]byte("x"))
		return err
	})
	if n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write into a full buffer past its deadline: %d, %v; want 0, os.ErrDeadlineExceeded", n, err)
	}
}

func TestPipeCloseWriteDrainsThenEOF(t *testing.T) {
	c, s := pipePair(t)
	if _, err := c.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	if err := c.(interface{ CloseWrite() error }).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s); string(got) != "last words" {
		t.Fatalf("peer read %q before EOF, want %q", got, "last words")
	}
	if _, err := c.Write([]byte("more")); err == nil {
		t.Fatal("write after CloseWrite succeeded")
	}
	// The half-closed end still reads.
	if _, err := s.Write([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := await(t, "read on the half-closed end", func() error {
		_, err := io.ReadFull(c, buf)
		return err
	}); err != nil || string(buf) != "ack" {
		t.Fatalf("half-closed end read %q, %v", buf, err)
	}
}

func TestPipeClose(t *testing.T) {
	c, s := pipePair(t)
	if _, err := c.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := await(t, "read on the closed end", func() error {
		_, err := c.Read(make([]byte, 1))
		return err
	}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read on the closed end: %v, want net.ErrClosed", err)
	}
	if got := readAll(t, s); string(got) != "tail" {
		t.Fatalf("peer read %q before EOF, want %q", got, "tail")
	}
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("write to a closed peer succeeded")
	}

	// A writer blocked on a full buffer fails once its reader closes.
	c, s = pipePair(t)
	if _, err := c.Write(make([]byte, pipeBufSize)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("x"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the writer block
	_ = s.Close()
	if err := await(t, "blocked write after the peer closed", func() error { return <-done }); err == nil {
		t.Fatal("blocked write succeeded after the peer closed")
	}
}

func TestPipeDialAfterListenerCloseIsRefused(t *testing.T) {
	ln, err := listen(pipeScheme)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	accepted := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		accepted <- err
	}()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := await(t, "Accept after Close", func() error { return <-accepted }); err == nil {
		t.Fatal("Accept returned a conn after Close")
	}
	if err := await(t, "dial after Close", func() error {
		_, err := Dial(addr, ClientOptions{ClientID: "late"})
		return err
	}); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("dial after the listener closed: %v, want connection refused", err)
	}
}
