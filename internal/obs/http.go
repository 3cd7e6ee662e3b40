package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// buildMux returns the observability surface:
//
//	/metrics        Prometheus text exposition of every registered family
//	/healthz        200 "ok" while healthy, 503 + error text after SetHealth
//	/debug/traces   JSON list of retained traces, newest first;
//	                /debug/traces/<16-hex id> renders one trace as a tree
//	/debug/pprof/   the standard net/http/pprof profiles (heap, profile,
//	                goroutine, trace, ...)
//	/               a plain index of the above
//
// The pprof handlers are mounted explicitly so the surface works on this
// private mux without touching http.DefaultServeMux.
func (r *Registry) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := r.Health(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unhealthy: %v\n", err)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/traces", r.handleTraceList)
	mux.HandleFunc("/debug/traces/", r.handleTraceTree)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "mira observability surface\n\n/metrics\n/healthz\n/debug/traces\n/debug/pprof/\n")
	})
	return mux
}

// traceSummary is one /debug/traces list entry. Fragments of the same
// distributed trace are merged before summarizing.
type traceSummary struct {
	Trace     string  `json:"trace"`
	Root      string  `json:"root"`
	Spans     int     `json:"spans"`
	Truncated int     `json:"truncated,omitempty"`
	Start     string  `json:"start"`
	Seconds   float64 `json:"seconds"`
	Sampled   bool    `json:"sampled"`
	Slow      bool    `json:"slow"`
}

func (r *Registry) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	all := r.Traces()
	// Merge fragments sharing a trace ID, preserving newest-first order
	// of first appearance.
	byID := make(map[TraceID]*traceSummary)
	order := make([]TraceID, 0, len(all))
	bounds := make(map[TraceID][2]time.Time)
	for _, tr := range all {
		s := byID[tr.Trace]
		if s == nil {
			s = &traceSummary{Trace: tr.Trace.String()}
			byID[tr.Trace] = s
			order = append(order, tr.Trace)
		}
		s.Spans += len(tr.Spans)
		s.Truncated += tr.Truncated
		s.Sampled = s.Sampled || tr.Sampled
		s.Slow = s.Slow || tr.Slow
		for _, sp := range tr.Spans {
			b := bounds[tr.Trace]
			end := sp.Start.Add(sp.Duration)
			if b[0].IsZero() || sp.Start.Before(b[0]) {
				b[0] = sp.Start
			}
			if end.After(b[1]) {
				b[1] = end
			}
			bounds[tr.Trace] = b
		}
	}
	out := make([]traceSummary, 0, len(order))
	for _, id := range order {
		s := byID[id]
		b := bounds[id]
		spans := mergeFragments(r.TraceByID(id))
		if root := rootSpan(spans); root != nil {
			s.Root = root.Name
		}
		if !b[0].IsZero() {
			s.Start = b[0].UTC().Format(time.RFC3339Nano)
			s.Seconds = b[1].Sub(b[0]).Seconds()
		}
		out = append(out, *s)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

func (r *Registry) handleTraceTree(w http.ResponseWriter, req *http.Request) {
	idHex := strings.TrimPrefix(req.URL.Path, "/debug/traces/")
	if len(idHex) != 16 {
		http.Error(w, "trace ID must be 16 hex digits", http.StatusBadRequest)
		return
	}
	v, err := parseHex16(idHex)
	if err != nil || v == 0 {
		http.Error(w, "trace ID must be 16 hex digits", http.StatusBadRequest)
		return
	}
	frags := r.TraceByID(TraceID(v))
	if len(frags) == 0 {
		http.NotFound(w, req)
		return
	}
	spans := mergeFragments(frags)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "trace %s: %d spans across %d fragment(s)\n",
		TraceID(v), len(spans), len(frags))
	writeTraceTree(w, spans)
}

// rootSpan picks the tree root: a span with no parent, else the earliest
// span whose parent is not retained (a remote-parented fragment).
func rootSpan(spans []SpanRecord) *SpanRecord {
	have := make(map[SpanID]bool, len(spans))
	for _, sp := range spans {
		have[sp.ID] = true
	}
	for i := range spans {
		if spans[i].Parent == 0 {
			return &spans[i]
		}
	}
	for i := range spans {
		if !have[spans[i].Parent] {
			return &spans[i]
		}
	}
	return nil
}

// writeTraceTree renders spans as an indented tree, children under their
// parents in start order. Spans whose parent is absent (remote, or
// truncated away) surface as top-level nodes.
func writeTraceTree(w io.Writer, spans []SpanRecord) {
	have := make(map[SpanID]bool, len(spans))
	children := make(map[SpanID][]int)
	for _, sp := range spans {
		have[sp.ID] = true
	}
	var roots []int
	for i, sp := range spans {
		if sp.Parent != 0 && have[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	var emit func(i, depth int)
	emit = func(i, depth int) {
		sp := spans[i]
		fmt.Fprintf(w, "%s%s %.6fs", strings.Repeat("  ", depth), sp.Name, sp.Duration.Seconds())
		if depth == 0 && sp.Parent != 0 {
			fmt.Fprintf(w, " (remote parent %s)", sp.Parent)
		}
		for _, kv := range sp.Attrs {
			fmt.Fprintf(w, " %s=%s", kv[0], kv[1])
		}
		fmt.Fprintln(w)
		for _, c := range children[sp.ID] {
			emit(c, depth+1)
		}
	}
	for _, i := range roots {
		emit(i, 0)
	}
}

// HTTPServer is a running observability surface with optional extra
// handlers mounted on the same mux (see ServeWith). It supports graceful
// shutdown so services that accept remote writes can stop taking requests
// before flushing state to disk.
type HTTPServer struct {
	srv  *http.Server
	addr string
}

// Addr returns the bound listen address (useful with port 0).
func (s *HTTPServer) Addr() string { return s.addr }

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish, up to ctx's deadline.
func (s *HTTPServer) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// ServeWith starts the observability surface on addr with extra routes:
// mount (if non-nil) is called with the mux before serving, so callers can
// add endpoints — e.g. the telemetrynet ingest/query API — alongside
// /metrics, /healthz, and pprof on one listener. The server runs in a
// background goroutine until Shutdown.
func (r *Registry) ServeWith(addr string, mount func(mux *http.ServeMux)) (*HTTPServer, error) {
	mux := r.buildMux()
	if mount != nil {
		mount(mux)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return &HTTPServer{srv: srv, addr: ln.Addr().String()}, nil
}

// ServeWith starts the default registry's surface on addr with extra
// routes mounted on the same mux.
func ServeWith(addr string, mount func(mux *http.ServeMux)) (*HTTPServer, error) {
	return defaultRegistry.ServeWith(addr, mount)
}
