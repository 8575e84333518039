package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// get fetches a URL and returns the body; fails the test on any error.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return body
}

func TestStartDebugServerServesMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.hits").Add(7)

	addr, stop, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("StartDebugServer: %v", err)
	}
	defer stop()

	body := get(t, fmt.Sprintf("http://%s/debug/metrics", addr))
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["test.hits"] != 7 {
		t.Fatalf("metrics missing test.hits counter: %s", body)
	}

	// The standard debugging surface is mounted too.
	get(t, fmt.Sprintf("http://%s/debug/vars", addr))
}

func TestStartDebugServerNilRegistry(t *testing.T) {
	addr, stop, err := StartDebugServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("StartDebugServer: %v", err)
	}
	defer stop()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/metrics", addr))
	if err != nil {
		t.Fatalf("GET /debug/metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("nil-registry /debug/metrics: got %d, want 404", resp.StatusCode)
	}
}

// TestStartDebugServerGracefulStop is the regression test for the
// shutdown path: the stopper must let in-flight scrapes complete (it
// drains via http.Server.Shutdown, not the old abortive Close) and must
// be safe to call more than once.
func TestStartDebugServerGracefulStop(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.hits").Add(1)

	addr, stop, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("StartDebugServer: %v", err)
	}

	// Fire a burst of concurrent scrapes and call stop while they are in
	// flight. With a graceful drain, every scrape that got a connection
	// either completes with a full body or is refused outright — none is
	// cut off mid-response.
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("http://%s/debug/metrics", addr))
			if err != nil {
				return // refused after listener close: fine
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- fmt.Errorf("response truncated mid-body: %v", err)
				return
			}
			var snap map[string]json.RawMessage
			if err := json.Unmarshal(body, &snap); err != nil {
				errs <- fmt.Errorf("partial JSON body: %v", err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let some requests take flight
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Idempotent: a second stop must not panic or error.
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}

	// And the listener is actually gone.
	if _, err := http.Get(fmt.Sprintf("http://%s/debug/metrics", addr)); err == nil {
		t.Fatal("server still serving after stop")
	}
}

// TestStartDebugServerStopsWithSilentConnection: a connection that is
// accepted but never sends a request must not hold the stopper past its
// drain budget. net/http counts such a connection as idle only after 5 s,
// so the stopper relies on the header read deadline to close it.
func TestStartDebugServerStopsWithSilentConnection(t *testing.T) {
	addr, stop, err := StartDebugServer("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatalf("StartDebugServer: %v", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond) // let the server accept it
	start := time.Now()
	if err := stop(); err != nil {
		t.Fatalf("stop after %v: %v", time.Since(start), err)
	}
}
