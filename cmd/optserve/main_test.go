package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv makes the test binary run main() instead of the tests, so
// a test can drive optserve's real flag handling in a child process.
const runMainEnv = "OPTSERVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRemovedClusterFlagsFail: the cluster layer is gone, and each of its
// five flags is a usage error naming the flag — never silently ignored,
// never a server started. The child listens on an ephemeral port and is
// killed after a while, so a flag that is still accepted fails the test
// instead of hanging it.
func TestRemovedClusterFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-node-id", "a"},
		{"-peers", "a=,b=http://127.0.0.1:1"},
		{"-cluster-secret", "s"},
		{"-peer-timeout", "1s"},
		{"-hot-after", "2"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if err == nil || timedOut {
			t.Errorf("optserve %s: exit %v after %s; want a usage error", strings.Join(args, " "), err, out)
			continue
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
			t.Errorf("optserve %s: output does not say %q:\n%s", strings.Join(args, " "), want, out)
		}
	}
}

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
