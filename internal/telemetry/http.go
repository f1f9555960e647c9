package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// Handler returns an http.Handler exposing the registry:
//
//	/metrics        Prometheus text exposition
//	/debug/vars     expvar JSON (Default registry mirrored under "grace")
//	/debug/pprof/*  net/http/pprof profiles (CPU, heap, goroutine, ...)
//
// pprof is mounted explicitly on this mux rather than relying on the
// net/http/pprof side effect, which only touches http.DefaultServeMux.
func (t *T) Handler() http.Handler {
	if t == Default {
		publishExpvar()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// MetricsServer is a running telemetry HTTP endpoint.
type MetricsServer struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// Addr is the bound listen address (useful with ":0").
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close shuts the endpoint down and waits for the serve loop to exit.
func (m *MetricsServer) Close() error {
	err := m.srv.Close()
	<-m.done
	return err
}

// Serve binds addr and serves Handler() on it in a background goroutine.
// The caller owns the returned server and should Close it on shutdown.
func (t *T) Serve(addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &MetricsServer{
		srv: &http.Server{
			Handler:           t.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
		},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(m.done)
		m.srv.Serve(ln)
	}()
	return m, nil
}

// StartExporters is what a command does with its -telemetry-addr, -trace and
// -telemetry-linger flags: it enables span recording on t and stands up the
// exporters asked for — a live endpoint on addr, a Chrome trace_event file at
// tracePath — printing what it serves under the command's name. The returned
// func finishes them: linger for a last scrape, flush and close the trace,
// stop the endpoint. With neither addr nor tracePath set, both are no-ops.
func (t *T) StartExporters(cmd, addr, tracePath string, linger time.Duration) (finish func(), err error) {
	if addr == "" && tracePath == "" {
		return func() {}, nil
	}
	t.Enable(true)
	var tr *Tracer
	if tracePath != "" {
		if tr, err = CreateTrace(tracePath); err != nil {
			return nil, err
		}
		t.SetTracer(tr)
	}
	var srv *MetricsServer
	if addr != "" {
		if srv, err = t.Serve(addr); err != nil {
			if tr != nil {
				t.SetTracer(nil)
				tr.Close() // nothing was traced yet; the bind error is the one to report
			}
			return nil, err
		}
		fmt.Printf("telemetry: serving /metrics, /debug/vars, /debug/pprof on http://%s\n", srv.Addr())
	}
	return func() {
		if srv != nil && linger > 0 {
			fmt.Printf("telemetry: lingering %v for a final scrape of http://%s/metrics\n", linger, srv.Addr())
			time.Sleep(linger)
		}
		if tr != nil {
			t.SetTracer(nil)
			if err := tr.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: closing trace: %v\n", cmd, err)
			} else {
				fmt.Printf("telemetry: trace written to %s\n", tracePath)
			}
		}
		if srv != nil {
			srv.Close()
		}
	}, nil
}
