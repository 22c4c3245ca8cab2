package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"subgraphmatching/internal/service"
)

// The production values, and the two timeouts that must stay off: they
// would bound whole uploads and whole NDJSON streams.
func TestHTTPServerTimeoutValues(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 120*time.Second {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s and 2m0s", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v, WriteTimeout %v; both must stay unset", srv.ReadTimeout, srv.WriteTimeout)
	}
}

// serveScaled runs newHTTPServer over the real handler with the two
// timeouts scaled down (same fields, test-sized values) and returns the
// listener address.
func serveScaled(t *testing.T, header, idle time.Duration) string {
	t.Helper()
	svc := service.New(service.Config{})
	srv := newHTTPServer("", newServer(svc, serverOptions{}))
	srv.ReadHeaderTimeout, srv.IdleTimeout = header, idle
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
		svc.Close()
	})
	return ln.Addr().String()
}

// readResponse reads one response off a raw connection and drains its
// body, leaving the connection ready for the next request.
func readResponse(t *testing.T, br *bufio.Reader) *http.Response {
	t.Helper()
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	resp.Body.Close()
	return resp
}

func TestHalfHeaderConnectionIsClosed(t *testing.T) {
	const header = 150 * time.Millisecond
	addr := serveScaled(t, header, time.Minute)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: sma"); err != nil {
		t.Fatal(err)
	}
	// The server gives up on the header; the client sees the close (after
	// an optional 408) well before the 5 s guard below.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after half a header line", time.Since(start))
	}
	if waited := time.Since(start); waited < header {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, header)
	}
}

func TestKeepAliveReusedInsideIdleWindow(t *testing.T) {
	const header, idle = 100 * time.Millisecond, 2 * time.Second
	addr := serveScaled(t, header, idle)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	const req = "GET /healthz HTTP/1.1\r\nHost: smatchd\r\n\r\n"
	for i := 0; i < 3; i++ {
		if i > 0 {
			// Longer than the header timeout, well inside the idle
			// window: the wait for the next request is governed by
			// IdleTimeout alone.
			time.Sleep(3 * header)
		}
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp := readResponse(t, br); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
}

// Why ReadTimeout is unset: a body that arrives slower than the header
// timeout (a large PUT /graphs over a thin link) is still read whole.
func TestSlowBodyOutlivesHeaderTimeout(t *testing.T) {
	const header = 100 * time.Millisecond
	addr := serveScaled(t, header, time.Minute)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := "t 2 1\nv 0 0 1\nv 1 1 1\ne 0 1\n"
	head := "PUT /graphs/slow HTTP/1.1\r\nHost: smatchd\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"
	if _, err := io.WriteString(conn, head+body[:8]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * header)
	if _, err := io.WriteString(conn, body[8:]); err != nil {
		t.Fatal(err)
	}
	if resp := readResponse(t, bufio.NewReader(conn)); resp.StatusCode/100 != 2 {
		t.Fatalf("slow upload: status %d", resp.StatusCode)
	}
}
