package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"time"
)

// capturedReq is a request the wire client issued, kept so the traced run
// can replay it into the handler with no socket and no client in the way.
type capturedReq struct {
	method, url string
	header      http.Header
	body        []byte
}

// captureTransport remembers every request it forwards. With a nil inner
// transport it answers 200 "{}" itself: a stub server that costs nothing,
// which leaves only the client's own encode time.
type captureTransport struct {
	inner http.RoundTripper
	mu    sync.Mutex
	reqs  []capturedReq
}

func (c *captureTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	cr := capturedReq{method: req.Method, url: req.URL.String(), header: req.Header.Clone()}
	if req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		cr.body = body
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	c.mu.Lock()
	c.reqs = append(c.reqs, cr)
	c.mu.Unlock()
	if c.inner == nil {
		return &http.Response{StatusCode: http.StatusOK, Header: make(http.Header),
			Body: io.NopCloser(bytes.NewReader([]byte("{}"))), Request: req}, nil
	}
	return c.inner.RoundTrip(req)
}

// discardWriter is the response side of a handler-only probe: it counts the
// bytes a handler writes and keeps none.
type discardWriter struct {
	header http.Header
	status int
	bytes  int64
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Flush()              {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	return len(p), nil
}

// serve replays the request into h and returns the status, the response
// size and the handler's time.
func (c capturedReq) serve(h http.Handler) (status int, size int64, d time.Duration, err error) {
	req, err := http.NewRequest(c.method, c.url, bytes.NewReader(c.body))
	if err != nil {
		return 0, 0, 0, err
	}
	req.Header = c.header
	w := &discardWriter{header: make(http.Header), status: http.StatusOK}
	t0 := time.Now()
	h.ServeHTTP(w, req)
	return w.status, w.bytes, time.Since(t0), nil
}

// timingTransport records how long each round trip took: the ack latency
// the pushing client sees per frame.
type timingTransport struct {
	inner http.RoundTripper
	mu    sync.Mutex
	took  []time.Duration
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	d := time.Since(t0)
	t.mu.Lock()
	t.took = append(t.took, d)
	t.mu.Unlock()
	return resp, err
}

// timeN runs f n times, each under parent as a span called name, and
// returns the median seconds.
func timeN(parent *span, name string, n int, f func() error) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sp := parent.child(name)
		t0 := time.Now()
		err := f()
		times = append(times, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}
