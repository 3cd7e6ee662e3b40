package telemetrynet

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/topology"
)

// ServerOptions configures a telemetry Server.
type ServerOptions struct {
	// ScanWorkers bounds the decode workers behind streaming scan requests
	// (<= 0 selects GOMAXPROCS); forwarded to the store's merged scan.
	ScanWorkers int

	// SlowQuery enables the slow-query log: any request taking at least
	// this long emits one JSON line to SlowLog with the request's trace
	// ID, query shape, and scan counters. 0 disables.
	SlowQuery time.Duration

	// SlowLog receives slow-query lines; nil selects os.Stderr. Writes
	// are serialized by the server.
	SlowLog io.Writer

	// DedupClients caps the ingest dedup table: at most this many client
	// entries are remembered, least-recently-active evicted first. <= 0
	// selects DefaultDedupClients. An evicted client that reappears starts
	// a fresh watermark; the store's own per-rack time-order check rejects
	// any genuinely stale replay it might carry.
	DedupClients int
}

// DefaultDedupClients bounds the ingest dedup table when
// ServerOptions.DedupClients is unset. 4096 clients × two words dwarfs any
// real fleet (one client per simulator process) while keeping a hostile
// stream of fabricated client IDs from growing server memory without bound.
const DefaultDedupClients = 4096

// Server exposes an environmental database over HTTP: a batched,
// CRC-checked, idempotent ingest endpoint plus query endpoints mirroring
// the envdb.DB / envdb.Aggregator read surface. Mount it on the obs
// observability mux (obs.ServeWith) so /metrics, /healthz, pprof, and the
// telemetry API share one listener — the miramon -serve topology.
//
// Every endpoint is safe for concurrent use to the extent the underlying
// store is; tsdb.Store serves concurrent ingest and queries.
type Server struct {
	db    envdb.DB
	opts  ServerOptions
	fleet topology.Fleet // the store's hall × rack shape (1×48 when unknown)

	// Ingest dedup state: per client, the highest batch sequence committed
	// (water) plus the set of sequences being applied right now (inflight).
	// The watermark advances only after the batch lands in the store, so a
	// rejected or failed batch leaves its (client, seq) token unconsumed
	// and a corrected retry under the same token is accepted — the store
	// applies batches all-or-nothing (envdb.BatchAppender), never a prefix.
	// Clients are LRU-bounded (opts.DedupClients); the list front is the
	// most recently active client.
	mu      sync.Mutex
	clients map[uint64]*list.Element
	lru     *list.List // of *clientState

	slowMu sync.Mutex // serializes slow-query log lines
}

// clientState is one client's dedup entry.
type clientState struct {
	id       uint64
	water    uint64              // highest committed batch sequence
	inflight map[uint64]struct{} // sequences mid-application
}

// NewServer wraps db in a telemetry service.
func NewServer(db envdb.DB, opts ServerOptions) *Server {
	if opts.DedupClients <= 0 {
		opts.DedupClients = DefaultDedupClients
	}
	fleet := topology.Fleet{}.Norm()
	if fd, ok := db.(envdb.FleetDescriber); ok {
		fleet = fd.Fleet().Norm()
	}
	return &Server{
		db:      db,
		opts:    opts,
		fleet:   fleet,
		clients: make(map[uint64]*list.Element),
		lru:     list.New(),
	}
}

// Mount registers the telemetry API on mux under /v1/.
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/ingest", s.traced("ingest", "net.ingest", s.handleIngest))
	mux.HandleFunc("/v1/query", s.traced("query", "net.query", s.handleQuery))
	mux.HandleFunc("/v1/series", s.traced("series", "net.series", s.handleSeries))
	mux.HandleFunc("/v1/aggregate", s.traced("aggregate", "net.aggregate", s.handleAggregate))
	mux.HandleFunc("/v1/aggregate/racks", s.traced("aggregate_racks", "net.aggregate_racks", s.handleAggregateRacks))
	mux.HandleFunc("/v1/scan", s.traced("scan", "net.scan", s.handleScan))
	mux.HandleFunc("/v1/info", s.traced("info", "net.info", s.handleInfo))
}

// Handler returns a standalone handler serving only the telemetry API
// (tests; production deployments mount on the obs mux instead).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Mount(mux)
	return mux
}

// queryShape accumulates the request's shape fields — endpoint, time
// range, rack, tiers/workers, rows — for the slow-query log and the
// handler span's attributes. Handlers fill it via shapeFrom(ctx).
type queryShape struct {
	mu     sync.Mutex
	fields [][2]string
}

type shapeKey struct{}

func (q *queryShape) set(k, v string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range q.fields {
		if q.fields[i][0] == k {
			q.fields[i][1] = v
			return
		}
	}
	q.fields = append(q.fields, [2]string{k, v})
}

func (q *queryShape) snapshot() map[string]string {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.fields) == 0 {
		return nil
	}
	out := make(map[string]string, len(q.fields))
	for _, kv := range q.fields {
		out[kv[0]] = kv[1]
	}
	return out
}

func shapeFrom(ctx context.Context) *queryShape {
	q, _ := ctx.Value(shapeKey{}).(*queryShape)
	return q
}

// traced wraps an endpoint handler with the request-scoped observability
// stack: extract X-Mira-Trace (malformed values are ignored — the request
// starts a fresh root trace), start the handler span, thread per-request
// scan counters through the context, record the latency histogram with
// the trace ID as its bucket exemplar, and emit a slow-query line when
// the request crosses the configured threshold.
func (s *Server) traced(endpoint, spanName string, h http.HandlerFunc) http.HandlerFunc {
	hist := metRequestDur.With(endpoint)
	return func(w http.ResponseWriter, req *http.Request) {
		ctx := req.Context()
		if sc, ok := obs.ParseTraceHeader(req.Header.Get(obs.TraceHeader)); ok {
			ctx = obs.ContextWithRemoteSpan(ctx, sc)
		}
		stats := new(envdb.ScanStats)
		ctx = envdb.ContextWithScanStats(ctx, stats)
		shape := &queryShape{}
		ctx = context.WithValue(ctx, shapeKey{}, shape)
		ctx, span := obs.Span(ctx, spanName)
		start := time.Now()
		h(w, req.WithContext(ctx))
		elapsed := time.Since(start)
		for k, v := range shape.snapshot() {
			span.SetAttr(k, v)
		}
		trace := span.Context().Trace
		span.End()
		hist.ObserveExemplar(elapsed.Seconds(), trace.String())
		if s.opts.SlowQuery > 0 && elapsed >= s.opts.SlowQuery {
			s.logSlowQuery(endpoint, trace, elapsed, shape, stats)
		}
	}
}

// slowQueryLine is the JSON schema of one slow-query log line.
type slowQueryLine struct {
	TS            string            `json:"ts"`
	Trace         string            `json:"trace"`
	Endpoint      string            `json:"endpoint"`
	Seconds       float64           `json:"seconds"`
	Shape         map[string]string `json:"shape,omitempty"`
	Records       int64             `json:"records"`
	BlocksDecoded int64             `json:"blocks_decoded"`
}

func (s *Server) logSlowQuery(endpoint string, trace obs.TraceID, elapsed time.Duration, shape *queryShape, stats *envdb.ScanStats) {
	metSlowQueries.With(endpoint).Inc()
	line, err := json.Marshal(slowQueryLine{
		TS:            time.Now().UTC().Format(time.RFC3339Nano),
		Trace:         trace.String(),
		Endpoint:      endpoint,
		Seconds:       elapsed.Seconds(),
		Shape:         shape.snapshot(),
		Records:       stats.Records.Load(),
		BlocksDecoded: stats.BlocksDecoded.Load(),
	})
	if err != nil {
		return // all fields are marshalable; defensive only
	}
	out := s.opts.SlowLog
	if out == nil {
		out = os.Stderr
	}
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	out.Write(append(line, '\n'))
}

// IngestResult is the JSON body of a successful ingest response.
type IngestResult struct {
	AcceptedBatches  int `json:"accepted_batches"`
	AcceptedRecords  int `json:"accepted_records"`
	DuplicateBatches int `json:"duplicate_batches"`
}

// batchClaim is beginBatch's verdict on one (client, seq) token.
type batchClaim int

const (
	batchNew       batchClaim = iota // apply it
	batchDuplicate                   // already committed; drop silently
	batchBusy                        // same token mid-application elsewhere
)

// beginBatch claims (clientID, seq) for application. A sequence at or
// below the client's committed watermark is a duplicate; a sequence
// another request is applying right now is busy (the client should retry
// after that application settles one way or the other). Otherwise the
// sequence is marked inflight and the caller must endBatch it.
func (s *Server) beginBatch(clientID, seq uint64) batchClaim {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st *clientState
	if el, ok := s.clients[clientID]; ok {
		s.lru.MoveToFront(el)
		st = el.Value.(*clientState)
	} else {
		st = &clientState{id: clientID, inflight: make(map[uint64]struct{})}
		s.clients[clientID] = s.lru.PushFront(st)
		s.evictLocked()
		metDedupClients.Set(float64(len(s.clients)))
	}
	if seq <= st.water {
		return batchDuplicate
	}
	if _, busy := st.inflight[seq]; busy {
		return batchBusy
	}
	st.inflight[seq] = struct{}{}
	return batchNew
}

// endBatch releases an inflight token, committing the watermark only when
// the batch landed in the store. A failed batch leaves the token free, so
// a corrected retry under the same (client, seq) is accepted.
func (s *Server) endBatch(clientID, seq uint64, committed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.clients[clientID]
	if !ok {
		return // unreachable: inflight entries are never evicted
	}
	st := el.Value.(*clientState)
	delete(st.inflight, seq)
	if committed && seq > st.water {
		st.water = seq
	}
}

// evictLocked drops least-recently-active clients beyond the configured
// cap, skipping any with inflight batches (their endBatch must find them).
// Callers hold s.mu.
func (s *Server) evictLocked() {
	over := len(s.clients) - s.opts.DedupClients
	for el := s.lru.Back(); el != nil && over > 0; {
		prev := el.Prev()
		if st := el.Value.(*clientState); len(st.inflight) == 0 {
			s.lru.Remove(el)
			delete(s.clients, st.id)
			over--
		}
		el = prev
	}
}

// appendBatch lands one decoded batch in the store: all-or-nothing through
// envdb.BatchAppender when the store provides it (tsdb.Store and
// envdb.Store both do), else a plain Append loop — non-atomic, but any
// partial prefix makes the retried batch fail the store's own time-order
// check rather than double-append.
func (s *Server) appendBatch(recs []sensors.Record) error {
	if ba, ok := s.db.(envdb.BatchAppender); ok {
		return ba.AppendTick(recs)
	}
	for i, rec := range recs {
		if err := s.db.Append(rec); err != nil {
			return fmt.Errorf("record %d: %v", i, err)
		}
	}
	return nil
}

// handleIngest reads a stream of ingest frames from the request body and
// appends each new batch to the store. Frames apply in order; the first
// malformed frame fails the request with 400 (already-applied frames stay
// applied — the client's retry replays them as deduplicated tokens). A
// batch the store rejects (e.g. out-of-order telemetry) is the client's
// data error: 409, the store is left exactly as it was (the batch applies
// all-or-nothing), and the batch token stays unconsumed so a corrected
// retry under the same sequence is accepted.
func (s *Server) handleIngest(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	shape := shapeFrom(req.Context())
	var res IngestResult
	for {
		fr, err := decodeIngestFrame(req.Body)
		if err == io.EOF {
			break
		}
		if err != nil {
			metIngestErrors.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch s.beginBatch(fr.ClientID, fr.Seq) {
		case batchDuplicate:
			metIngestDuplicates.Inc()
			res.DuplicateBatches++
			continue
		case batchBusy:
			http.Error(w, fmt.Sprintf("batch %d already being applied", fr.Seq), http.StatusServiceUnavailable)
			return
		}
		err = s.appendBatch(fr.Records)
		s.endBatch(fr.ClientID, fr.Seq, err == nil)
		if err != nil {
			metIngestErrors.Inc()
			http.Error(w, fmt.Sprintf("batch %d: %v", fr.Seq, err), http.StatusConflict)
			return
		}
		metIngestBatches.Inc()
		metIngestRecords.Add(uint64(len(fr.Records)))
		res.AcceptedBatches++
		res.AcceptedRecords += len(fr.Records)
	}
	shape.set("batches", strconv.Itoa(res.AcceptedBatches))
	shape.set("rows", strconv.Itoa(res.AcceptedRecords))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// queryParams parses the shared rack/from/to parameters. The rack travels
// as its packed code (topology.RackID.Code). Times travel as UnixNano
// integers — exact, zone-free instants.
func (s *Server) queryParams(req *http.Request) (rack topology.RackID, from, to time.Time, err error) {
	q := req.URL.Query()
	code, err := strconv.ParseUint(q.Get("rack"), 10, 16)
	if err != nil {
		return rack, from, to, fmt.Errorf("bad rack %q", q.Get("rack"))
	}
	rack, err = topology.RackFromCode(uint16(code))
	if err != nil || !s.fleet.Contains(rack) {
		return rack, from, to, fmt.Errorf("bad rack %q", q.Get("rack"))
	}
	from, to, err = timeParams(q)
	return rack, from, to, err
}

// timeParams parses the shared from/to parameters.
func timeParams(q url.Values) (from, to time.Time, err error) {
	fromN, err := strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil {
		return from, to, fmt.Errorf("bad from %q", q.Get("from"))
	}
	toN, err := strconv.ParseInt(q.Get("to"), 10, 64)
	if err != nil {
		return from, to, fmt.Errorf("bad to %q", q.Get("to"))
	}
	return time.Unix(0, fromN).UTC(), time.Unix(0, toN).UTC(), nil
}

func metricParam(req *http.Request) (sensors.Metric, error) {
	m, err := strconv.Atoi(req.URL.Query().Get("metric"))
	if err != nil || m < 0 || m >= int(sensors.NumMetrics) {
		return 0, fmt.Errorf("bad metric %q", req.URL.Query().Get("metric"))
	}
	return sensors.Metric(m), nil
}

// zoneOff reports the store's zone offset (from its earliest record), so
// remote reads reconstruct instants in the same calendar zone as local
// reads — monthly bucketing downstream depends on it.
func (s *Server) zoneOff() int32 {
	if first, _, ok := s.db.Bounds(); ok {
		return zoneOffset(first)
	}
	return 0
}

// setRangeShape records the shared rack/time-range query shape.
func setRangeShape(shape *queryShape, rack topology.RackID, from, to time.Time) {
	shape.set("rack", rack.String())
	shape.set("from", from.UTC().Format(time.RFC3339))
	shape.set("to", to.UTC().Format(time.RFC3339))
}

func (s *Server) handleQuery(w http.ResponseWriter, req *http.Request) {
	rack, from, to, err := s.queryParams(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	shape := shapeFrom(req.Context())
	setRangeShape(shape, rack, from, to)
	recs := s.db.Query(rack, from, to)
	shape.set("rows", strconv.Itoa(len(recs)))
	cw := newChunkWriter(w, false, s.zoneOff())
	cw.reserve(len(recs))
	for _, r := range recs {
		if err := cw.add(r); err != nil {
			return // client went away mid-stream
		}
	}
	if cw.close() == nil {
		metScanRecordsSent.Add(uint64(len(recs)))
	}
}

func (s *Server) handleSeries(w http.ResponseWriter, req *http.Request) {
	rack, from, to, err := s.queryParams(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := metricParam(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	shape := shapeFrom(req.Context())
	setRangeShape(shape, rack, from, to)
	shape.set("metric", m.String())
	times, vals := s.db.Series(rack, m, from, to)
	shape.set("rows", strconv.Itoa(len(times)))
	encodeSeries(w, s.zoneOff(), times, vals)
}

func (s *Server) handleAggregate(w http.ResponseWriter, req *http.Request) {
	agg, ok := s.db.(envdb.Aggregator)
	if !ok {
		http.Error(w, "store does not support aggregation pushdown", http.StatusNotImplemented)
		return
	}
	rack, from, to, err := s.queryParams(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := metricParam(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	windowN, err := strconv.ParseInt(req.URL.Query().Get("window"), 10, 64)
	if err != nil || windowN < 0 {
		http.Error(w, fmt.Sprintf("bad window %q", req.URL.Query().Get("window")), http.StatusBadRequest)
		return
	}
	shape := shapeFrom(req.Context())
	setRangeShape(shape, rack, from, to)
	shape.set("metric", m.String())
	shape.set("window", time.Duration(windowN).String())
	aggs, err := agg.AggregateCtx(req.Context(), rack, m, from, to, time.Duration(windowN))
	s.writeAggs(w, aggs, err)
}

// handleAggregateRacks answers envdb.Aggregator.AggregateRacks: the
// whole-range window of every (rack, metric) of one hall, rack-major, in
// one aggregate frame. metrics is a comma-separated list of at most
// sensors.NumMetrics metric indices, which bounds the frame at
// 48 × sensors.NumMetrics windows.
func (s *Server) handleAggregateRacks(w http.ResponseWriter, req *http.Request) {
	agg, ok := s.db.(envdb.Aggregator)
	if !ok {
		http.Error(w, "store does not support aggregation pushdown", http.StatusNotImplemented)
		return
	}
	q := req.URL.Query()
	hall, err := strconv.Atoi(q.Get("hall"))
	if err != nil || hall < 0 || hall >= s.fleet.Halls {
		http.Error(w, fmt.Sprintf("bad hall %q", q.Get("hall")), http.StatusBadRequest)
		return
	}
	var metrics []sensors.Metric
	if list := q.Get("metrics"); list != "" {
		for _, f := range strings.Split(list, ",") {
			m, err := strconv.Atoi(f)
			if err != nil || m < 0 || m >= int(sensors.NumMetrics) || len(metrics) == int(sensors.NumMetrics) {
				http.Error(w, fmt.Sprintf("bad metrics %q", list), http.StatusBadRequest)
				return
			}
			metrics = append(metrics, sensors.Metric(m))
		}
	}
	from, to, err := timeParams(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	shape := shapeFrom(req.Context())
	shape.set("hall", strconv.Itoa(hall))
	shape.set("metrics", q.Get("metrics"))
	shape.set("from", from.UTC().Format(time.RFC3339))
	shape.set("to", to.UTC().Format(time.RFC3339))
	aggs, err := agg.AggregateRacks(req.Context(), hall, metrics, from, to)
	s.writeAggs(w, aggs, err)
}

// writeAggs answers an aggregate request with the store's windows, or
// with its error: 400 for a query shape the store refuses, which is the
// client's to fix, and 500 for anything else, a store failure such as a
// block that fails to decode.
func (s *Server) writeAggs(w http.ResponseWriter, aggs []envdb.WindowAgg, err error) {
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, envdb.ErrAggregateShape) {
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
		return
	}
	wire := make([]windowAgg, len(aggs))
	for i, a := range aggs {
		wire[i] = windowAgg{startN: a.Start.UnixNano(), count: int64(a.Count), min: a.Min, max: a.Max, sum: a.Sum}
	}
	encodeAggs(w, s.zoneOff(), wire)
}

// handleScan streams the store's merged scan (global time order, rack
// code ascending within an instant) straight from its chunk columns, one
// wire chunk per merged chunk, so the chunk buffers on both ends stay the
// size of the store's chunks; tiers=1 appends each record's storage tier.
// The chunk buffer comes from scanBufs and goes back when the stream ends.
// A scan that fails before its first row answers 500 with the store's
// error; one that fails mid-stream ends without the terminator chunk,
// which the client decodes as a truncated stream.
func (s *Server) handleScan(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	tiered := q.Get("tiers") == "1"
	workers := s.opts.ScanWorkers
	if ws := q.Get("workers"); ws != "" {
		n, err := strconv.Atoi(ws)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad workers %q", ws), http.StatusBadRequest)
			return
		}
		// The server's own option caps remote fan-out requests: a client
		// cannot demand more decode goroutines than the operator allowed.
		if workers <= 0 || (n > 0 && n < workers) {
			workers = n
		}
	}
	shape := shapeFrom(req.Context())
	shape.set("tiers", strconv.FormatBool(tiered))
	shape.set("workers", strconv.Itoa(workers))
	cw := newChunkWriter(w, tiered, s.zoneOff())
	buf := scanBufs.Get().(*[]byte)
	cw.buf = *buf
	defer func() {
		*buf = cw.buf[:0]
		scanBufs.Put(buf)
	}()
	sent := 0
	err := s.db.EachChunkMergedCtx(req.Context(), workers, func(c *envdb.Chunk) bool {
		for i := range c.Times {
			if cw.addRow(c, i) != nil {
				return false // client went away; abandon the scan
			}
			sent++
		}
		return cw.flushChunk() == nil
	})
	shape.set("rows", strconv.Itoa(sent))
	if err != nil {
		if !cw.started {
			http.Error(w, fmt.Sprintf("scan: %v", err), http.StatusInternalServerError)
		}
		return
	}
	if cw.close() == nil {
		metScanRecordsSent.Add(uint64(sent))
	}
}

// scanBufs holds the chunk buffers of finished scan streams. A scan's
// buffer grows to its largest merged chunk; without the pool every
// /v1/scan would regrow it from nil.
var scanBufs = sync.Pool{New: func() any { return new([]byte) }}

// Info is the JSON body of /v1/info: the store's record count, time
// bounds, calendar zone, and fleet shape.
type Info struct {
	Records           int   `json:"records"`
	HasData           bool  `json:"has_data"`
	FirstUnixNano     int64 `json:"first_unixnano"`
	LastUnixNano      int64 `json:"last_unixnano"`
	ZoneOffsetSeconds int32 `json:"zone_offset_seconds"`
	// Aggregator reports whether /v1/aggregate is available (it answers
	// 501 when the served store has no pushdown).
	Aggregator bool `json:"aggregator"`
	// Halls and RacksPerHall describe the store's fleet shape.
	Halls        int `json:"halls"`
	RacksPerHall int `json:"racks_per_hall"`
}

func (s *Server) handleInfo(w http.ResponseWriter, req *http.Request) {
	info := Info{
		Records:           s.db.Len(),
		ZoneOffsetSeconds: s.zoneOff(),
		Halls:             s.fleet.Halls,
		RacksPerHall:      s.fleet.Racks,
	}
	_, info.Aggregator = s.db.(envdb.Aggregator)
	if first, last, ok := s.db.Bounds(); ok {
		info.HasData = true
		info.FirstUnixNano = first.UnixNano()
		info.LastUnixNano = last.UnixNano()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}
