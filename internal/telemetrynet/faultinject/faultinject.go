// Package faultinject wraps an http.Handler with deterministic fault
// injection for exactly-once protocol tests. It models the failure shapes a
// retrying client must survive: requests dropped before the handler applies
// them, responses lost after the handler commits, whole requests delivered
// twice, and requests delayed past their peers. Faults are chosen by a Rule
// keyed on (method, path, attempt) so tests stay deterministic — no clocks,
// no randomness — and the transport counts what it injected so a test can
// assert its faults actually fired.
//
// Extracted from telemetrynet's lossy-transport ingest test so the campaign
// dispatcher's claim/complete exactly-once tests exercise the identical
// failure model.
package faultinject

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// bodyBytes is a buffered request body that can be replayed.
type bodyBytes []byte

func snapshotBody(req *http.Request) bodyBytes {
	if req.Body == nil {
		return nil
	}
	b, _ := io.ReadAll(req.Body)
	req.Body.Close()
	return b
}

func (b bodyBytes) reader() io.ReadCloser {
	return io.NopCloser(bytes.NewReader(b))
}

// Action is the fate of one request.
type Action int

const (
	// Pass delivers the request normally.
	Pass Action = iota
	// Drop kills the request with a 503 before the handler runs: the
	// request is lost before application.
	Drop
	// Blackhole runs the handler for real, then aborts the connection:
	// the effect is applied but the response never reaches the client.
	Blackhole
	// Duplicate runs the handler twice for one client request (the first
	// response is discarded): a replayed delivery.
	Duplicate
	// Delay sleeps before delivering normally: a late request that may
	// arrive after the client has already retried it.
	Delay
)

// String names the action for test diagnostics.
func (a Action) String() string {
	switch a {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Blackhole:
		return "blackhole"
	case Duplicate:
		return "duplicate"
	case Delay:
		return "delay"
	}
	return "unknown"
}

// Rule decides the fate of one request: method and path identify the
// endpoint, attempt is the 1-based count of requests this transport has seen
// for that (method, path) pair.
type Rule func(method, path string, attempt int64) Action

// EveryNth reproduces the classic lossy-transport schedule: every drop-th
// request is dropped before application and every blackhole-th commits but
// loses its response. A zero period disables that fault. Drop wins ties.
func EveryNth(drop, blackhole int64) Rule {
	return func(method, path string, attempt int64) Action {
		switch {
		case drop > 0 && attempt%drop == 0:
			return Drop
		case blackhole > 0 && attempt%blackhole == 0:
			return Blackhole
		}
		return Pass
	}
}

// Transport wraps Inner with fault injection. The zero Rule passes
// everything through.
type Transport struct {
	Inner http.Handler
	Rule  Rule
	// Sleep is the Delay action's pause (default 2 ms).
	Sleep time.Duration

	mu       sync.Mutex
	attempts map[string]int64
	injected map[Action]int64
}

// next bumps the (method, path) attempt counter and picks the action.
func (t *Transport) next(method, path string) Action {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempts == nil {
		t.attempts = make(map[string]int64)
		t.injected = make(map[Action]int64)
	}
	key := method + " " + path
	t.attempts[key]++
	act := Pass
	if t.Rule != nil {
		act = t.Rule(method, path, t.attempts[key])
	}
	t.injected[act]++
	return act
}

// Injected reports how many requests received the given action, so a test
// can assert its fault schedule actually fired.
func (t *Transport) Injected(a Action) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected[a]
}

func (t *Transport) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch t.next(req.Method, req.URL.Path) {
	case Drop:
		http.Error(w, "faultinject: injected outage", http.StatusServiceUnavailable)
	case Blackhole:
		// Apply for real, then drop the response on the floor. ErrAbortHandler
		// makes net/http sever the connection so the client sees a transport
		// error, exactly as if the response packet was lost.
		rec := httptest.NewRecorder()
		t.Inner.ServeHTTP(rec, req)
		panic(http.ErrAbortHandler)
	case Duplicate:
		// Deliver the same request twice; the client sees the second
		// response. Bodies are replayable only if buffered, so duplicate
		// delivery snapshots the body first.
		body := snapshotBody(req)
		first := req.Clone(req.Context())
		first.Body = body.reader()
		rec := httptest.NewRecorder()
		t.Inner.ServeHTTP(rec, first)
		second := req.Clone(req.Context())
		second.Body = body.reader()
		t.Inner.ServeHTTP(w, second)
	case Delay:
		d := t.Sleep
		if d <= 0 {
			d = 2 * time.Millisecond
		}
		time.Sleep(d)
		t.Inner.ServeHTTP(w, req)
	default:
		t.Inner.ServeHTTP(w, req)
	}
}
