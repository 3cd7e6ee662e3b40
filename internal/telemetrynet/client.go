package telemetrynet

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/topology"
)

// ClientOptions configures a telemetry Client.
type ClientOptions struct {
	// BatchSize is the records-per-frame push granularity (default 4096):
	// Append buffers until a full batch, then pushes synchronously, so a
	// slow server back-pressures the producer instead of growing a queue.
	BatchSize int
	// Retries is how many times one push is re-sent after a transport
	// failure or 5xx response (default 3). Retries reuse the batch's
	// sequence token, so a push whose response was lost deduplicates
	// server-side instead of double-appending.
	Retries int
	// HTTPClient overrides the transport (e.g. the benchmark's load
	// generator widens the connection pool for many concurrent requests).
	HTTPClient *http.Client
	// ClientID overrides the random ingest identity. Two clients must not
	// share an ID: the server's dedup watermark is per-ID.
	ClientID uint64
	// Context bounds every push: canceling it aborts in-flight requests
	// AND the backoff waits between retries, so Append/Flush return
	// promptly with an error wrapping the context's error instead of
	// sleeping out the remaining retry schedule against a dead server.
	// Defaults to context.Background (pushes never canceled).
	Context context.Context
}

// ClientStats counts what a client pushed over its lifetime.
type ClientStats struct {
	PushedBatches    int
	PushedRecords    int
	Retries          int
	DuplicateBatches int
}

// Client speaks the telemetrynet wire protocol and implements envdb.DB —
// including the envdb.Aggregator pushdown and the optional merged-scan
// capabilities — against a remote Server, so `mirasim -push` records into
// it and `miraanalyze -remote` analyzes through it exactly as they would
// an in-process store. Reads are bit-identical to local reads: float64
// channels travel as raw bit patterns and aggregation runs server-side.
//
// Error model: methods that return errors (Append, Flush, Aggregate,
// EachRecordMerged*, ExportCSV/ImportCSV, Info) surface transport and
// protocol failures normally. The error-free envdb.DB read surface
// (Query, Series, Len, Bounds, EachRecord*) mirrors the local stores'
// convention — there a failure means corrupted memory and panics — by
// panicking on a failed request; remote consumers should prefer the
// erroring surfaces, which every shipped consumer (analysis replay and
// pushdown) already uses. Check connectivity once with Info before
// leaning on the error-free surface.
//
// The client is safe for concurrent use; Append/Flush serialize on an
// internal mutex (one frame in flight), reads run concurrently.
type Client struct {
	base    string
	hc      *http.Client
	batch   int
	retries int
	id      uint64
	ctx     context.Context

	mu    sync.Mutex
	buf   []sensors.Record
	seq   uint64
	stats ClientStats
}

var (
	_ envdb.DB                 = (*Client)(nil)
	_ envdb.Aggregator         = (*Client)(nil)
	_ envdb.TierScanner        = (*Client)(nil)
	_ envdb.ContextTierScanner = (*Client)(nil)
	_ envdb.ContextAggregator  = (*Client)(nil)
)

// NewClient creates a client for the telemetry server at baseURL (e.g.
// "http://mon-host:8080"); no connection is made until the first request.
func NewClient(baseURL string, opts ClientOptions) *Client {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 4096
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 3
	}
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: 5 * time.Minute}
	}
	if opts.ClientID == 0 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			opts.ClientID = binary.LittleEndian.Uint64(b[:])
		}
		if opts.ClientID == 0 {
			opts.ClientID = uint64(time.Now().UnixNano()) | 1
		}
	}
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	return &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      opts.HTTPClient,
		batch:   opts.BatchSize,
		retries: opts.Retries,
		id:      opts.ClientID,
		ctx:     opts.Context,
	}
}

// Stats snapshots the client's push counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Append buffers one record, pushing a frame when the batch fills. A push
// failure is returned here (and the batch dropped) rather than silently
// requeued — the recorder latches the first error and the run fails loudly.
func (c *Client) Append(r sensors.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, r)
	if len(c.buf) >= c.batch {
		return c.flushLocked()
	}
	return nil
}

// Flush pushes the buffered partial batch, if any. Call after the last
// Append so the tail of a run reaches the server.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

func (c *Client) flushLocked() error {
	if len(c.buf) == 0 {
		return nil
	}
	// One span per push, covering every retry; the span's trace rides the
	// X-Mira-Trace header so the server's net.ingest handler links to it.
	ctx, span := obs.Span(c.ctx, "net.client.ingest")
	defer span.End()
	span.SetAttr("rows", strconv.Itoa(len(c.buf)))
	c.seq++
	frame := encodeIngestFrame(nil, c.id, c.seq, c.buf)
	n := len(c.buf)
	// Win or lose, the batch is consumed: a batch the server rejected must
	// not poison every subsequent flush, and a transport-dead batch is
	// reported to the caller instead of silently retried forever.
	c.buf = c.buf[:0]
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.stats.Retries++
			metClientRetries.Inc()
			// The backoff wait races the client context: a canceled push
			// must not sleep out the remaining retry schedule against a
			// server that is already known to be down.
			timer := time.NewTimer(retryBackoff(attempt, c.id, c.seq))
			select {
			case <-c.ctx.Done():
				timer.Stop()
				metClientErrors.Inc()
				return fmt.Errorf("telemetrynet: push canceled on attempt %d: %w (last error: %v)",
					attempt, c.ctx.Err(), lastErr)
			case <-timer.C:
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/ingest", bytes.NewReader(frame))
		if err != nil {
			metClientErrors.Inc()
			return fmt.Errorf("telemetrynet: push: %w", err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		injectTrace(req, ctx)
		resp, err := c.hc.Do(req)
		if err != nil {
			if c.ctx.Err() != nil {
				metClientErrors.Inc()
				return fmt.Errorf("telemetrynet: push canceled on attempt %d: %w", attempt+1, err)
			}
			lastErr = err
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			var res IngestResult
			if json.Unmarshal(body, &res) == nil {
				c.stats.DuplicateBatches += res.DuplicateBatches
			}
			c.stats.PushedBatches++
			c.stats.PushedRecords += n
			metClientPushBatches.Inc()
			metClientPushRecords.Add(uint64(n))
			return nil
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("telemetrynet: push: server %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		default:
			metClientErrors.Inc()
			return fmt.Errorf("telemetrynet: push rejected (%d): %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
	}
	metClientErrors.Inc()
	return fmt.Errorf("telemetrynet: push failed after %d attempts: %w", c.retries+1, lastErr)
}

// retryBackoff is the wait before retry `attempt` (1-based): linear 50 ms
// steps plus up to 25 ms of deterministic jitter mixed from the client
// identity, the batch sequence, and the attempt counter. The jitter
// decorrelates the retry schedules of many clients whose pushes failed at
// the same instant (a restarting server would otherwise see them all
// again simultaneously, every 50 ms); deriving it from counters instead
// of a RNG keeps the schedule reproducible for a given client and batch.
func retryBackoff(attempt int, id, seq uint64) time.Duration {
	h := id ^ seq*0x9E3779B97F4A7C15 ^ uint64(attempt)*0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	jitter := time.Duration(h % uint64(25*time.Millisecond))
	return time.Duration(attempt)*50*time.Millisecond + jitter
}

// httpError is a non-200 response. The client retries nothing on the read
// side and substitutes nothing: a 404 or 501 reaches the caller as this.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("telemetrynet: server %d: %s", e.code, e.msg)
}

// injectTrace stamps the outgoing request with the context's trace, so
// the server joins the caller's trace instead of starting a fresh root.
func injectTrace(req *http.Request, ctx context.Context) {
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		req.Header.Set(obs.TraceHeader, sc.HeaderValue())
	}
}

// get issues one API request under ctx; non-200 responses become
// *httpError. The context's active span is propagated on the wire.
func (c *Client) get(ctx context.Context, path string, q url.Values) (io.ReadCloser, error) {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		metClientErrors.Inc()
		return nil, fmt.Errorf("telemetrynet: %s: %w", path, err)
	}
	injectTrace(req, ctx)
	resp, err := c.hc.Do(req)
	if err != nil {
		metClientErrors.Inc()
		return nil, fmt.Errorf("telemetrynet: %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		metClientErrors.Inc()
		return nil, &httpError{code: resp.StatusCode, msg: strings.TrimSpace(string(body))}
	}
	return resp.Body, nil
}

func rangeParams(rack topology.RackID, from, to time.Time) url.Values {
	return url.Values{
		"rack": {strconv.FormatUint(uint64(rack.Code()), 10)},
		"from": {strconv.FormatInt(from.UnixNano(), 10)},
		"to":   {strconv.FormatInt(to.UnixNano(), 10)},
	}
}

// Info fetches the server's store summary — also the cheap connectivity
// pre-flight before using the error-free read surface.
func (c *Client) Info() (Info, error) { return c.infoCtx(c.ctx) }

func (c *Client) infoCtx(ctx context.Context) (Info, error) {
	ctx, span := obs.Span(ctx, "net.client.info")
	defer span.End()
	body, err := c.get(ctx, "/v1/info", nil)
	if err != nil {
		return Info{}, err
	}
	defer body.Close()
	var info Info
	if err := json.NewDecoder(body).Decode(&info); err != nil {
		return Info{}, fmt.Errorf("telemetrynet: decoding info: %w", err)
	}
	return info, nil
}

// Len returns the remote record count. Panics on a failed request (see the
// type's error-model note).
func (c *Client) Len() int {
	info, err := c.Info()
	if err != nil {
		panic(err)
	}
	return info.Records
}

// Bounds implements envdb.Aggregator's bounds surface from /v1/info.
// Panics on a failed request.
func (c *Client) Bounds() (first, last time.Time, ok bool) {
	info, err := c.Info()
	if err != nil {
		panic(err)
	}
	if !info.HasData {
		return time.Time{}, time.Time{}, false
	}
	loc := zoneLocation(info.ZoneOffsetSeconds)
	return time.Unix(0, info.FirstUnixNano).In(loc), time.Unix(0, info.LastUnixNano).In(loc), true
}

func (c *Client) queryErr(ctx context.Context, rack topology.RackID, from, to time.Time) ([]sensors.Record, error) {
	ctx, span := obs.Span(ctx, "net.client.query")
	defer span.End()
	body, err := c.get(ctx, "/v1/query", rangeParams(rack, from, to))
	if err != nil {
		return nil, err
	}
	defer body.Close()
	out := []sensors.Record{}
	if err := readChunkStream(body, func(r sensors.Record, _ byte) bool {
		out = append(out, r)
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Query returns one rack's records in [from, to). Panics on a failed
// request.
func (c *Client) Query(rack topology.RackID, from, to time.Time) []sensors.Record {
	out, err := c.queryErr(c.ctx, rack, from, to)
	if err != nil {
		panic(err)
	}
	return out
}

// Series extracts one metric for one rack over [from, to). Panics on a
// failed request.
func (c *Client) Series(rack topology.RackID, m sensors.Metric, from, to time.Time) ([]time.Time, []float64) {
	ctx, span := obs.Span(c.ctx, "net.client.series")
	defer span.End()
	q := rangeParams(rack, from, to)
	q.Set("metric", strconv.Itoa(int(m)))
	body, err := c.get(ctx, "/v1/series", q)
	if err != nil {
		panic(err)
	}
	defer body.Close()
	times, vals, err := decodeSeries(body)
	if err != nil {
		panic(err)
	}
	return times, vals
}

// EachRecord visits every remote record rack-major (time order within a
// rack), streamed in CRC-checked chunks. Panics on a failed request.
func (c *Client) EachRecord(f func(sensors.Record)) {
	c.EachRecordUntil(func(r sensors.Record) bool { f(r); return true })
}

// EachRecordUntil visits records like EachRecord, stopping early when f
// returns false (the remaining stream is abandoned, not downloaded).
// Panics on a failed request.
func (c *Client) EachRecordUntil(f func(sensors.Record) bool) {
	err := c.scan(c.ctx, url.Values{"order": {"rack"}}, func(r sensors.Record, _ byte) bool { return f(r) })
	if err != nil {
		panic(err)
	}
}

func (c *Client) scan(ctx context.Context, q url.Values, f func(sensors.Record, byte) bool) error {
	ctx, span := obs.Span(ctx, "net.client.scan")
	defer span.End()
	body, err := c.get(ctx, "/v1/scan", q)
	if err != nil {
		return err
	}
	defer body.Close()
	rows := 0
	defer func() { span.SetAttr("rows", strconv.Itoa(rows)) }()
	return readChunkStream(body, func(r sensors.Record, tier byte) bool {
		rows++
		return f(r, tier)
	})
}

// EachRecordMerged implements envdb.ShardScanner over the wire: the server
// streams its global time-ordered merge (workers bounds the server-side
// decode fan-out, still capped by the server's own option).
func (c *Client) EachRecordMerged(workers int, f func(sensors.Record) bool) error {
	return c.EachRecordMergedTier(workers, func(r sensors.Record, _ envdb.Tier) bool { return f(r) })
}

// EachRecordMergedTier implements envdb.TierScanner over the wire.
func (c *Client) EachRecordMergedTier(workers int, f func(sensors.Record, envdb.Tier) bool) error {
	return c.EachRecordMergedTierCtx(c.ctx, workers, f)
}

// EachRecordMergedTierCtx implements envdb.ContextTierScanner over the
// wire: the scan request carries ctx's trace in X-Mira-Trace, so the
// server-side handler and tsdb scan spans join the caller's trace.
func (c *Client) EachRecordMergedTierCtx(ctx context.Context, workers int, f func(sensors.Record, envdb.Tier) bool) error {
	q := url.Values{"order": {"time"}, "tiers": {"1"}}
	if workers > 0 {
		q.Set("workers", strconv.Itoa(workers))
	}
	return c.scan(ctx, q, func(r sensors.Record, tier byte) bool { return f(r, envdb.Tier(tier)) })
}

// Aggregate implements envdb.Aggregator over the wire: the server computes
// per-window count/min/max/sum straight off its compressed columns and the
// results travel as raw float64 bits — bit-identical to an in-process
// Aggregate call. A server whose store cannot push down answers 501, which
// is returned as the error it is.
func (c *Client) Aggregate(rack topology.RackID, m sensors.Metric, from, to time.Time, window time.Duration) ([]envdb.WindowAgg, error) {
	return c.AggregateCtx(c.ctx, rack, m, from, to, window)
}

// AggregateCtx implements envdb.ContextAggregator over the wire.
func (c *Client) AggregateCtx(ctx context.Context, rack topology.RackID, m sensors.Metric, from, to time.Time, window time.Duration) ([]envdb.WindowAgg, error) {
	ctx, span := obs.Span(ctx, "net.client.aggregate")
	defer span.End()
	q := rangeParams(rack, from, to)
	q.Set("metric", strconv.Itoa(int(m)))
	q.Set("window", strconv.FormatInt(int64(window), 10))
	body, err := c.get(ctx, "/v1/aggregate", q)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	wire, loc, err := decodeAggs(body)
	if err != nil {
		return nil, err
	}
	out := make([]envdb.WindowAgg, len(wire))
	for i, a := range wire {
		out[i] = envdb.WindowAgg{
			Start: time.Unix(0, a.startN).In(loc),
			Count: int(a.count),
			Min:   a.min, Max: a.max, Sum: a.sum,
		}
	}
	return out, nil
}

// ExportCSV writes every remote record in the envdb CSV schema.
func (c *Client) ExportCSV(w io.Writer) error { return envdb.WriteCSV(w, c) }

// ImportCSV pushes records from the envdb CSV schema, flushing the final
// partial batch.
func (c *Client) ImportCSV(r io.Reader) error {
	if err := envdb.ReadCSV(r, c); err != nil {
		return err
	}
	return c.Flush()
}
