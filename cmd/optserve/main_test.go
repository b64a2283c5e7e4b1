package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSilentClientIsDropped: the server optserve builds has every edge
// timeout set, and a connection that sends half a request header and
// then goes silent is closed when the header timeout (shortened here;
// the mechanism is what is under test) expires, instead of pinning its
// goroutine for ever.
func TestSilentClientIsDropped(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("edge timeouts not set: header %v, read %v, idle %v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/optimize HTTP/1.1\r\nHost: x\r\nContent-Le"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server answers a timed-out header with nothing or with a 408
	// and closes; either way the read ends well before the deadline.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("the connection was still open after 5s: %v", err)
	}
}
