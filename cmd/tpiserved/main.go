// Command tpiserved is the simulation-as-a-service daemon: it serves the
// internal/svc HTTP JSON API (POST /v1/runs, GET/DELETE /v1/runs/{id},
// GET /v1/runs/{id}/events, GET /v1/healthz) over a
// bounded worker pool with content-addressed compile and result caches,
// plus a Prometheus scrape endpoint on GET /metrics. POST /v1/cache
// answers which result keys the daemon's cache holds; cmd/tpisweep
// uses it to send each repeated point to the worker that already holds
// its result (see docs/SERVICE.md).
//
// Usage:
//
//	tpiserved -addr :8177 -workers 4
//
// Logs are structured (log/slog): -log-format picks text or json,
// -log-level picks debug/info/warn/error. -debug-addr starts a second
// listener with net/http/pprof and a /metrics mirror, kept off the main
// API port so profiling is opt-in and never internet-facing by accident.
//
// SIGTERM or SIGINT drains gracefully: new submissions are rejected with
// 503 while in-flight and queued jobs run to completion (bounded by
// -drain-timeout, after which stragglers are cancelled at their next
// epoch barrier). See docs/SERVICE.md for the API reference and
// docs/TELEMETRY.md for the metric catalogue.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/svc"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8177", "listen address")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "submission queue depth (full queue rejects with 429)")
	compileCache := flag.Int("compile-cache", 128, "compile cache entries, and analysis cache entries")
	resultCache := flag.Int("result-cache", 4096, "result cache entries")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "default per-job deadline for requests without timeoutMs")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits before cancelling in-flight jobs")
	maxBody := flag.Int64("max-body", 8<<20, "request body size limit in bytes")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	debugAddr := flag.String("debug-addr", "", "optional second listener with net/http/pprof and /metrics (e.g. localhost:8178)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "tpiserved: unexpected argument %q\n", flag.Arg(0))
		flag.PrintDefaults()
		os.Exit(2)
	}

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpiserved:", err)
		os.Exit(2)
	}

	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg, 5*time.Second)

	s := svc.New(svc.Options{
		Workers:             *workers,
		QueueDepth:          *queue,
		CompileCacheEntries: *compileCache,
		ResultCacheEntries:  *resultCache,
		DefaultTimeout:      *jobTimeout,
		MaxBodyBytes:        *maxBody,
		Logger:              logger,
		Registry:            reg,
	})
	hs := &http.Server{Addr: *addr, Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	var ds *http.Server
	if *debugAddr != "" {
		ds = &http.Server{Addr: *debugAddr, Handler: debugMux(reg)}
		go func() {
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("debug listener: %w", err)
			}
		}()
		logger.Info("debug listener up", "addr", *debugAddr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	logger.Info("serving", "addr", *addr, "workers", *workers, "queue", *queue)

	select {
	case err := <-errc:
		logger.Error("listener failed", "error", err.Error())
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("signal received, draining", "signal", sig.String(), "timeout", drainTimeout.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := s.Drain(ctx)
	if err := hs.Shutdown(context.Background()); err != nil {
		logger.Error("shutdown failed", "error", err.Error())
		os.Exit(1)
	}
	if ds != nil {
		ds.Shutdown(context.Background()) //nolint:errcheck // best-effort; main listener is down
	}
	if drainErr != nil {
		logger.Error("drain forced", "error", drainErr.Error())
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// buildLogger assembles the slog handler from the CLI flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// debugMux is the -debug-addr handler: pprof plus a metrics mirror.
// Handlers are mounted explicitly rather than via the pprof package's
// DefaultServeMux side effects, so the main API mux stays clean.
func debugMux(reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.ContentType)
		reg.WritePrometheus(w)
	})
	return mux
}
