package e2e

import (
	"fmt"
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"
)

// terminate SIGTERMs the daemon and waits for it to exit, returning the
// exit error (nil for a clean exit 0). A daemon still running after
// within is killed and reported.
func (d *daemon) terminate(within time.Duration) error {
	d.mu.Lock()
	d.waited = true
	d.mu.Unlock()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(within):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("still running %s after SIGTERM", within)
	}
}

// TestSIGTERMRightAfterListen: a SIGTERM sent the moment the listen line
// appears drains the daemon — the handler is installed before serving —
// instead of killing it with the default action.
func TestSIGTERMRightAfterListen(t *testing.T) {
	for _, name := range []string{"mtatd", "mtatfleet"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d := startDaemon(t, name, "-addr", "127.0.0.1:0")
			if err := d.terminate(30 * time.Second); err != nil {
				t.Fatalf("%s: exit after SIGTERM: %v\nstderr:\n%s", name, err, d.stderrText())
			}
		})
	}
}

// TestShutdownWithUnusedConnection: a client holding a connection it
// never sent a request on must not turn SIGTERM into a failed exit —
// net/http counts such a connection as active for 5s, as long as the
// daemons' HTTP shutdown grace.
func TestShutdownWithUnusedConnection(t *testing.T) {
	for _, name := range []string{"mtatd", "mtatfleet"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d := startDaemon(t, name, "-addr", "127.0.0.1:0")
			conn, err := net.Dial("tcp", d.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// The listener accepts in arrival order, so once a later
			// request is answered the unused connection is being served.
			hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
			resp, err := hc.Get("http://" + d.addr + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if err := d.terminate(30 * time.Second); err != nil {
				t.Fatalf("%s: exit after SIGTERM: %v\nstderr:\n%s", name, err, d.stderrText())
			}
		})
	}
}
