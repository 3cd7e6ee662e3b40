package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/sim"
	"mira/internal/telemetrynet"
	"mira/internal/tsdb"
)

// simulateInto runs the twin over [start, end) with rec as its only
// recorder — the mirasim assembly, no analysis collectors.
func simulateInto(seed int64, start, end time.Time, step time.Duration, rec sim.Recorder) error {
	s := sim.New(sim.Config{Seed: seed, Start: start, End: end, Step: step})
	s.AddRecorder(rec)
	return s.Run()
}

// fixture is a persisted, warm-opened store served over loopback: what
// `miramon -serve -data dir` offers `miraanalyze -remote` and dashboards.
type fixture struct {
	dir         string
	db          *tsdb.Store
	records     int
	first, last time.Time
	diskBytes   int64
	srv         *served
}

// buildFixture simulates the window into a tsdb store, flushes it, reopens
// it warm and starts serving it.
func buildFixture(seed int64, start, end time.Time, step time.Duration, dir string) (*fixture, error) {
	cold := tsdb.NewStoreWith(tsdb.Options{})
	rec := sim.NewEnvDBRecorder(cold)
	if err := simulateInto(seed, start, end, step, rec); err != nil {
		return nil, fmt.Errorf("fixture sim: %w", err)
	}
	if rec.Err != nil {
		return nil, fmt.Errorf("fixture recording: %w", rec.Err)
	}
	cold.SealAll()
	if err := cold.Flush(dir); err != nil {
		return nil, fmt.Errorf("fixture flush: %w", err)
	}
	db, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		return nil, fmt.Errorf("fixture open: %w", err)
	}
	first, last, ok := db.Bounds()
	if !ok || db.Len() != cold.Len() {
		return nil, fmt.Errorf("fixture reopened with %d records, flushed %d", db.Len(), cold.Len())
	}
	srv, err := serve(db)
	if err != nil {
		return nil, err
	}
	return &fixture{dir: dir, db: db, records: db.Len(), first: first, last: last,
		diskBytes: db.Stats().DiskBytes, srv: srv}, nil
}

func (f *fixture) close() {
	f.srv.stop()
	os.RemoveAll(f.dir)
}

// served is a telemetry API on a real loopback listener.
type served struct {
	url     string
	handler http.Handler
	hs      *http.Server
	done    chan struct{}
}

func serve(db envdb.DB) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := telemetrynet.NewServer(db, telemetrynet.ServerOptions{}).Handler()
	s := &served{url: "http://" + ln.Addr().String(), handler: h, hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve.
func (s *served) stop() {
	s.hs.Close()
	<-s.done
}

var errTooManyConns = errors.New("more generator connections than nproc")

// newTransport caps a load generator at conns connections. The harness
// refuses more than nproc: generator and server share the host's cores, and
// extra connections would measure run-queue wait, not the server.
func newTransport(conns int) (*http.Transport, error) {
	if conns < 1 || conns > runtime.NumCPU() {
		return nil, fmt.Errorf("%w: asked for %d on %d cores", errTooManyConns, conns, runtime.NumCPU())
	}
	return &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: 90 * time.Second}, nil
}

func newClient(url string, rt http.RoundTripper) *telemetrynet.Client {
	return telemetrynet.NewClient(url, telemetrynet.ClientOptions{
		HTTPClient: &http.Client{Timeout: 5 * time.Minute, Transport: rt},
	})
}

// tickTrace is a captured simulation: one slice of hall-0 records per tick.
type tickTrace struct {
	sim.NopRecorder
	ticks   [][]sensors.Record
	records int
}

func (t *tickTrace) OnSample(r sensors.Record) {
	n := len(t.ticks)
	if n == 0 || !t.ticks[n-1][0].Time.Equal(r.Time) {
		t.ticks = append(t.ticks, make([]sensors.Record, 0, 48))
		n++
	}
	t.ticks[n-1] = append(t.ticks[n-1], r)
	t.records++
}

func captureTrace(seed int64, start, end time.Time, step time.Duration) (*tickTrace, error) {
	tr := &tickTrace{}
	if err := simulateInto(seed, start, end, step, tr); err != nil {
		return nil, fmt.Errorf("trace sim: %w", err)
	}
	if tr.records == 0 {
		return nil, errors.New("trace sim produced no records")
	}
	return tr, nil
}

// medianOf runs build n times, discarding all but the last result, and
// returns that result with the median build time in seconds: set-up is
// repeated so setup_s is a median, not a single draw.
func medianOf[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// repeatFor calls f until the budget is spent, at least minReps times; it
// starts another repetition only when one more of the last length fits.
func repeatFor(budget time.Duration, minReps int, f func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return err
		}
		if i+1 >= minReps && time.Since(start)+time.Since(t0) > budget {
			return nil
		}
	}
}
