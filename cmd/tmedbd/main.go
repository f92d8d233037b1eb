// Command tmedbd is the TMEDB solve daemon: a long-running multi-tenant
// HTTP service planning delay-constrained broadcasts on contact traces.
// It is the serving surface over the whole solver stack — per-request
// deadlines ride the context-cancellation checkpoints, overload lowers
// degradation-ladder rungs instead of returning errors, full-quality
// schedules are cached by content-addressed key, and both per-request
// run reports and process-wide fleet metrics come from the obs layer.
//
// Usage:
//
//	tmedbd [-addr localhost:8723] [-debug localhost:6060] [-traces dir]
//	       [-workers 1] [-max-concurrent 4] [-max-queue 16] [-cache 256]
//	       [-log json|text] [-flight 256]
//
// API:
//
//	POST /solve           JSON solve request -> schedule envelope + meta
//	                      (?trace=1 answers the catapult trace instead)
//	POST /edit            a /solve body plus its edit sequence -> the
//	                      same, solved on the edited trace
//	GET  /healthz         liveness + queue depth
//	GET  /metrics         Prometheus text exposition of the fleet metrics
//	GET  /debug/requests  flight recorder: the last N completed requests
//
// With -log, every request gets a process-unique req_id shared by its
// structured log events (admission, shedding, cache, degradation rungs,
// errors; each also carries the route), its flight-recorder entry, and
// its response. A panic while serving a request answers that request
// 500; the daemon keeps serving. With -debug,
// net/http/pprof, the expvar fleet metrics (expvar name "tmedbd" on
// /debug/vars), and /metrics are served on the debug address too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stderr); err != nil {
		fatal(err)
	}
}

func parseFlags(args []string) (config, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("tmedbd", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", cfg.addr, "solve API listen address")
	fs.StringVar(&cfg.debugAddr, "debug", "", "serve net/http/pprof and expvar fleet metrics on this address (empty: disabled)")
	fs.StringVar(&cfg.traceDir, "traces", "", "root directory for trace_file references (empty: inline/synthetic traces only)")
	fs.IntVar(&cfg.workers, "workers", cfg.workers, "per-solve worker pool cap (0: GOMAXPROCS)")
	fs.IntVar(&cfg.maxConcurrent, "max-concurrent", cfg.maxConcurrent, "solves running at once")
	fs.IntVar(&cfg.maxQueue, "max-queue", cfg.maxQueue, "requests waiting for a slot before 503; a deepening queue sheds ladder rungs first")
	fs.IntVar(&cfg.cacheSize, "cache", cfg.cacheSize, "schedule cache capacity (entries)")
	fs.StringVar(&cfg.logFormat, "log", "", "request-scoped structured logging to stderr: json or text (empty: disabled)")
	fs.IntVar(&cfg.flightSize, "flight", 0, "flight recorder capacity in requests (0: default 256)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch cfg.logFormat {
	case "", "json", "text":
	default:
		return cfg, fmt.Errorf("-log must be json or text (got %q)", cfg.logFormat)
	}
	if cfg.flightSize < 0 {
		return cfg, fmt.Errorf("-flight must be >= 0 (got %d)", cfg.flightSize)
	}
	if cfg.workers < 0 {
		return cfg, fmt.Errorf("-workers must be >= 0 (got %d)", cfg.workers)
	}
	if cfg.maxConcurrent <= 0 {
		return cfg, fmt.Errorf("-max-concurrent must be positive (got %d)", cfg.maxConcurrent)
	}
	if cfg.maxQueue <= 0 {
		return cfg, fmt.Errorf("-max-queue must be positive (got %d)", cfg.maxQueue)
	}
	if cfg.cacheSize <= 0 {
		return cfg, fmt.Errorf("-cache must be positive (got %d)", cfg.cacheSize)
	}
	return cfg, nil
}

// shutdownGrace bounds how long a terminating daemon waits for in-flight
// solves before cutting them off (their contexts are cancelled first, so
// the cancellation checkpoints unwind them promptly).
const shutdownGrace = 10 * time.Second

// run serves the API until ctx is cancelled, then drains gracefully. It
// is the whole daemon behind a seam tests can call repeatedly in one
// process — which is exactly what flushed out the once-per-process
// PublishExpvar panic.
func run(ctx context.Context, cfg config, logw io.Writer) error {
	srv := newServer(cfg)
	switch cfg.logFormat {
	case "json":
		srv.log = tmedb.NewJSONLogger(logw)
	case "text":
		srv.log = tmedb.NewTextLogger(logw)
	}
	if err := srv.proc.PublishExpvar("tmedbd"); err != nil {
		return err
	}

	if cfg.debugAddr != "" {
		dbg, err := tmedb.ServeDebug(ctx, cfg.debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(logw, "tmedbd: pprof/expvar on http://%s/debug/pprof\n", dbg.Addr())
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler: srv.handler(),
		// Per-request contexts descend from ctx, so daemon shutdown
		// cancels every in-flight solve through the checkpoint seam.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	fmt.Fprintf(logw, "tmedbd: serving on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(logw, "tmedbd: draining\n")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tmedbd:", err)
	os.Exit(1)
}
