package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	RegisterSim(reg)
	reg.Gauge(MSchedEpochNumber, "help").Set(3)

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(srv.URL(), "http://127.0.0.1:") {
		t.Fatalf("unexpected URL %q", srv.URL())
	}

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, _ := get("/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body, ctype := get("/metrics")
	if code != 200 {
		t.Errorf("/metrics = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ctype)
	}
	for _, fam := range []string{
		"# TYPE " + MSimDone + " counter",
		MSimCost + `{category="cpu"} 0`,
		MSimTasks + `{state="running"} 0`,
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics missing %q:\n%s", fam, body)
		}
	}

	code, body, ctype = get("/progress")
	if code != 200 || !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/progress = %d, Content-Type %q", code, ctype)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/progress JSON: %v\n%s", err, body)
	}
	if p.Epoch != 3 {
		t.Errorf("/progress epoch = %d, want 3", p.Epoch)
	}

	if code, body, _ := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d, %d bytes", code, len(body))
	}

	// Serve's default mux has no readiness probe: /readyz is always ok.
	if code, body, _ := get("/readyz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/readyz = %d %q", code, body)
	}
}

// TestMuxReady splits liveness from readiness: /healthz stays 200 while
// the ready callback flips /readyz between 200 and 503.
func TestMuxReady(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	mux := MuxReady(NewRegistry(), ready.Load)
	srv, err := ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != 200 {
		t.Errorf("ready /readyz = %d", code)
	}
	ready.Store(false)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("not-ready /readyz = %d, want 503", code)
	}
	if code := get("/healthz"); code != 200 {
		t.Errorf("/healthz = %d during not-ready — liveness must not flip", code)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", NewRegistry()); err == nil {
		t.Error("bad address accepted")
	}
}

// TestServerDropsStalledHeaders: a client that sends half a request line
// and then nothing must be disconnected within the header timeout, not
// hold its goroutine and socket for good.
func TestServerDropsStalledHeaders(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 50 * time.Millisecond
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}
	// The server's close ends the read; the local deadline only bounds the
	// test when the server never closes.
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Error("connection with unfinished headers still open after 40 header timeouts")
	}
}
