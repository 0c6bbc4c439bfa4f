// Command bionav-server runs BioNav's on-line subsystem (§VII): a web
// interface at / and a JSON API under /api/ serving keyword queries and
// cost-optimized navigation over a BioNav database.
//
//	bionav-server -demo -addr :8080
//	bionav-server -db ./db -debug-addr 127.0.0.1:6060
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bionav"
	"bionav/internal/core"
	"bionav/internal/journal"
	"bionav/internal/obs"
	"bionav/internal/server"
	"bionav/internal/store"
)

func main() {
	logger := obs.NewLogger(os.Stderr, slog.LevelInfo)
	app, err := build(os.Args[1:], os.Stdout, logger)
	if err != nil {
		logger.Error("startup failed", "error", err)
		os.Exit(1)
	}

	// The debug listener carries pprof and /metrics; it is separate from
	// the public listener so profiling endpoints bind where the operator
	// says — typically loopback — and never leak through the API address.
	if app.debugAddr != "" {
		dbg := &http.Server{
			Addr:              app.debugAddr,
			Handler:           app.debugHandler,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
		logger.Info("debug listener up", "addr", app.debugAddr)
	}

	srv := &http.Server{
		Addr:              app.addr,
		Handler:           app.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Graceful shutdown on SIGINT/SIGTERM: drain first (readiness flips,
	// queued waiters are released, in-flight navigations finish, the
	// journal is checkpointed and closed), then close the listeners.
	done := make(chan error, 1)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := app.srv.Drain(ctx)
		if serr := srv.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
		// The ingest log closes after the drain: no ingest can be in
		// flight once the API has stopped accepting requests.
		if cerr := app.live.Close(); cerr != nil && err == nil {
			err = cerr
		}
		done <- err
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		logger.Error("shutdown failed", "error", err)
		os.Exit(1)
	}
}

// app is everything build prepares for main: the public handler, the
// optional debug handler, and their listen addresses; main only binds
// sockets. Split out for testing.
type app struct {
	handler      http.Handler
	srv          *server.Server
	live         *store.Live
	addr         string
	debugAddr    string
	debugHandler http.Handler
}

// build parses flags, loads the dataset, and assembles the server.
func build(args []string, stdout io.Writer, logger *slog.Logger) (*app, error) {
	fs := flag.NewFlagSet("bionav-server", flag.ContinueOnError)
	var (
		dbDir   = fs.String("db", "", "BioNav database directory (from bionav-gen)")
		demo    = fs.Bool("demo", false, "serve an in-memory demo dataset instead of -db")
		addr    = fs.String("addr", ":8080", "listen address")
		policy  = fs.String("policy", "heuristic", "expansion policy: heuristic or static")
		policyK = fs.Int("k", 10, "policy cut/reduction budget")
		maxSess = fs.Int("max-sessions", 256, "maximum concurrent navigation sessions")
		sessTTL = fs.Duration("session-ttl", 30*time.Minute, "idle session lifetime")

		expBudget = fs.Duration("expand-budget", 2*time.Second, "EXPAND optimization budget before degrading to the static cut (negative disables)")
		inFlight  = fs.Int("max-inflight", 64, "concurrent API requests before shedding with 503 (negative disables)")
		queueWait = fs.Duration("queue-wait", 100*time.Millisecond, "how long an over-limit request waits for a slot")
		apiTO     = fs.Duration("api-timeout", 30*time.Second, "whole-request API deadline (negative disables)")

		debugAddr   = fs.String("debug-addr", "", "serve net/http/pprof and /metrics on this extra address (empty disables)")
		traceSample = fs.Int("trace-sample", 0, "capture and log every Nth request's span tree (0 disables)")

		journalDir = fs.String("journal", "", "session write-ahead log directory; sessions survive crashes and restarts (empty disables durability)")
		fsyncMode  = fs.String("fsync", "always", "journal fsync policy: always (every append), interval (background flush) or off")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, err := core.PolicyByName(*policy, *policyK); err != nil {
		return nil, err
	}

	// A -db directory opens as a live corpus: its ingest log is replayed to
	// the epoch it last served and /api/admin/ingest batches persist there.
	// The demo dataset is memory-only — ingest works but nothing survives.
	var live *store.Live
	switch {
	case *demo && *dbDir != "":
		return nil, fmt.Errorf("-demo and -db are mutually exclusive")
	case *demo:
		fmt.Fprintln(stdout, "generating demo dataset…")
		live = store.NewLive(bionav.GenerateDemo(bionav.DemoConfig{}))
	case *dbDir != "":
		var err error
		live, err = store.OpenLive(*dbDir)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("pass -db <dir> or -demo")
	}

	var jnl *journal.Journal
	if *journalDir != "" {
		fsync, err := journal.ParseFsync(*fsyncMode)
		if err != nil {
			return nil, err
		}
		jnl, err = journal.Open(*journalDir, journal.Options{Fsync: fsync, Logger: logger})
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		if n := jnl.TornTails(); n > 0 {
			logger.Warn("journal had torn tail frames", "count", n)
		}
	}

	srv := server.NewLive(live, server.Config{
		MaxSessions:  *maxSess,
		SessionTTL:   *sessTTL,
		Policy:       *policy,
		PolicyK:      *policyK,
		ExpandBudget: *expBudget,
		MaxInFlight:  *inFlight,
		QueueWait:    *queueWait,
		APITimeout:   *apiTO,
		Logger:       logger,
		TraceSample:  *traceSample,
		Journal:      jnl,
	})
	if jnl != nil {
		n, err := srv.Recover(context.Background())
		if err != nil {
			return nil, fmt.Errorf("recover sessions: %w", err)
		}
		logger.Info("journal recovery done", "dir", *journalDir, "sessions", n, "fsync", *fsyncMode)
	}
	sn := live.Current()
	fmt.Fprintf(stdout, "serving %d concepts / %d citations (epoch %d) on %s\n",
		sn.Tree.Len(), sn.Corpus.Len(), sn.Epoch, *addr)
	return &app{
		handler:      srv.Handler(),
		srv:          srv,
		live:         live,
		addr:         *addr,
		debugAddr:    *debugAddr,
		debugHandler: obs.DebugMux(srv.Registry(), obs.Default),
	}, nil
}
