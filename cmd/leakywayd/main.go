// Command leakywayd serves the experiment engine over HTTP: scenario
// templates come in as jobs, results come out as content-addressed
// artifacts. SIGTERM drains — in-flight and queued jobs finish, then the
// process exits 0; an unclean kill is recovered from the journal on the
// next start from the same -data directory.
//
// Logs are structured (log/slog text format) on stderr; -log-level
// selects the floor (debug, info, warn, error). GET /metricsz exposes
// live daemon metrics in Prometheus text format, and
// GET /v1/jobs/{id}/events streams per-job progress as server-sent
// events.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"leakyway"
	"leakyway/internal/iofault"
	"leakyway/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leakywayd:", err)
		os.Exit(1)
	}
}

// parseLevel maps the -log-level flag to a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", s)
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8099", "listen address (use :0 for an ephemeral port)")
		dataDir    = flag.String("data", "", "data directory for the result store and journal (required)")
		workers    = flag.Int("workers", 2, "worker pool size and the engine worker budget a lone job may use")
		queueCap   = flag.Int("queue", 64, "max queued jobs before submissions get 429")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "deadline of a job's simulation, which runs once")
		retries    = flag.Int("retries", 2, "retry budget per job for a failed store publish (the simulation is not re-run)")
		stall      = flag.Duration("stall", 0, "delay each simulation before it starts (crash-recovery testing)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		version    = flag.Bool("version", false, "print the engine version and exit")

		storeQuota   = flag.Int64("store-quota-bytes", 0, "result-store byte quota; old results are evicted LRU past it (0 = unlimited)")
		storeEntries = flag.Int("store-max-entries", 0, "result-store entry cap, evicted LRU (0 = unlimited)")
		walRotate    = flag.Int64("wal-rotate-bytes", 0, "journal size that triggers online compaction (0 = default 4MiB, negative disables)")
		probeEvery   = flag.Duration("probe-interval", 0, "disk-probe cadence while degraded (0 = default 1s)")
		chaosFsync   = flag.Int("chaos-fsync-fail", 0, "FAULT INJECTION (testing): fail this many journal fsyncs after startup, then heal")
	)
	flag.Parse()
	if *version {
		fmt.Println("leakywayd", leakyway.EngineVersion)
		return nil
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}
	lvl, err := parseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	maxRetries := *retries
	if maxRetries == 0 {
		maxRetries = -1 // Config: negative disables retries, 0 means default
	}
	cfg := service.Config{
		DataDir:         *dataDir,
		Workers:         *workers,
		QueueCap:        *queueCap,
		JobTimeout:      *jobTimeout,
		MaxRetries:      maxRetries,
		Stall:           *stall,
		Logger:          logger,
		StoreQuotaBytes: *storeQuota,
		StoreMaxEntries: *storeEntries,
		WALRotateBytes:  *walRotate,
		ProbeInterval:   *probeEvery,
	}
	// The chaos hook arms only after startup, so New builds its journal
	// and store cleanly and the injected outage hits live traffic — the
	// window the degraded-mode machinery exists for.
	var chaosInj *iofault.Injector
	if *chaosFsync > 0 {
		chaosInj = iofault.NewInjector(iofault.OS(), 1,
			iofault.FailFirst("journal.jsonl", iofault.OpSync, *chaosFsync, iofault.ErrIO))
		chaosInj.SetActive(false)
		cfg.FS = chaosInj
	}
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	if chaosInj != nil {
		chaosInj.SetActive(true)
		logger.Warn("chaos fault injection armed", "fsync_failures", *chaosFsync)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Logged before serving so drivers using :0 can scrape the port from
	// the addr=... attribute.
	logger.Info("listening", "addr", ln.Addr(), "engine", leakyway.EngineVersion)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-serveErr:
		return err
	case got := <-sig:
		logger.Info("draining (second signal forces exit)", "signal", got.String())
	}

	// A second signal during the drain aborts immediately.
	forced := make(chan struct{})
	go func() {
		<-sig
		close(forced)
	}()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()

	select {
	case err := <-drained:
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	case <-forced:
		return fmt.Errorf("forced shutdown before drain completed")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained cleanly")
	return nil
}
