package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsScrapeUnderLoad hammers one histogram from 16 goroutines while
// /metrics is scraped concurrently — the lock-free observation path and the
// exposition snapshot must not race (this test is what `make race` is for).
func TestMetricsScrapeUnderLoad(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mira_test_hammer_seconds", "hammered", []float64{0.001, 0.1, 1})
	srv := httptest.NewServer(r.buildMux())
	defer srv.Close()

	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i) * 1e-6)
			}
		}(g)
	}
	for i := 0; i < 25; i++ {
		status, body := get(t, srv.URL+"/metrics")
		if status != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, status)
		}
		if !strings.Contains(body, "mira_test_hammer_seconds_count") {
			t.Fatalf("scrape %d missing histogram:\n%s", i, body)
		}
	}
	wg.Wait()

	_, body := get(t, srv.URL+"/metrics")
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "mira_test_hammer_seconds_count "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			if n != goroutines*perG {
				t.Errorf("final count = %d, want %d", n, goroutines*perG)
			}
			return
		}
	}
	t.Fatalf("no count line in final scrape:\n%s", body)
}

func TestHealthz(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(r.buildMux())
	defer srv.Close()

	if status, body := get(t, srv.URL+"/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthy: status=%d body=%q", status, body)
	}
	r.SetHealth(fmt.Errorf("open store: %w", errors.New("corrupt segment")))
	status, body := get(t, srv.URL+"/healthz")
	if status != http.StatusServiceUnavailable {
		t.Errorf("unhealthy status = %d, want 503", status)
	}
	if !strings.Contains(body, "corrupt segment") {
		t.Errorf("unhealthy body %q should carry the error", body)
	}
	r.SetHealth(nil)
	if status, _ := get(t, srv.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("recovered status = %d, want 200", status)
	}
}

func TestPprofAndIndex(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(r.buildMux())
	defer srv.Close()

	if status, body := get(t, srv.URL+"/debug/pprof/"); status != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: status=%d", status)
	}
	if status, body := get(t, srv.URL+"/"); status != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: status=%d body=%q", status, body)
	}
	if status, _ := get(t, srv.URL+"/nope"); status != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", status)
	}
}

// TestServe binds port 0 and scrapes the returned address end to end.
func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("mira_test_served_total", "x").Inc()
	srv, err := r.ServeWith("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	status, body := get(t, "http://"+srv.Addr()+"/metrics")
	if status != http.StatusOK || !strings.Contains(body, "mira_test_served_total 1") {
		t.Errorf("served scrape: status=%d body=%q", status, body)
	}
}
