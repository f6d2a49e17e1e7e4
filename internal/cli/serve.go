package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lotuseater/internal/cluster"
	"lotuseater/internal/serve"
)

// serveNode is the role-independent lifecycle the serve command drives: a
// single-process server, a cluster coordinator, or a cluster worker.
type serveNode interface {
	http.Handler
	// Drain stops admitting, finishes the running job, and fails queued
	// jobs with a drain status — the SIGTERM path.
	Drain() error
	Close() error
}

// serveSetup is a parsed, constructed-but-not-listening serve invocation.
type serveSetup struct {
	node    serveNode
	addr    string
	role    string
	version string
	banner  []string
	// announce, for workers, registers the node with its coordinator once
	// the listener is bound and the self URL is known.
	announce func(selfURL string)
	// advertise overrides the self URL workers announce (empty = derived
	// from the bound listener address).
	advertise string
}

// Serve implements `lotus-sim serve`: the long-running experiment service,
// as a single process or as one node of a coordinator/worker cluster. It
// listens on -addr and blocks until the listener fails or a
// SIGTERM/SIGINT arrives, at which point it drains gracefully: stop
// admitting, finish the job in flight, fail queued jobs with a clear
// status.
func Serve(w io.Writer, args []string) error {
	setup, err := buildServer(args)
	if err != nil {
		return err
	}
	defer setup.node.Close()
	ln, err := net.Listen("tcp", setup.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "lotus-sim serve: %s listening on http://%s (version %s)\n", setup.role, ln.Addr(), setup.version)
	for _, line := range setup.banner {
		fmt.Fprintf(w, "  %s\n", line)
	}
	if setup.announce != nil {
		self := setup.advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		fmt.Fprintf(w, "  announcing as %s\n", self)
		setup.announce(self)
	}

	hs := &http.Server{Handler: setup.node}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(w, "lotus-sim serve: %v — draining (no new jobs; running job finishes; queued jobs fail)\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()
	err = hs.Serve(ln)
	if err == http.ErrServerClosed {
		// Graceful path: the listener closed because we were signalled.
		if derr := setup.node.Drain(); derr != nil {
			return derr
		}
		fmt.Fprintf(w, "lotus-sim serve: drained\n")
		return nil
	}
	return err
}

// buildServer parses the serve flags and constructs the node for the
// requested role; split from Serve so tests can exercise flag handling
// and role wiring without binding a port.
func buildServer(args []string) (*serveSetup, error) {
	fs := flag.NewFlagSet("lotus-sim serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8321", "listen address")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "result cache budget in bytes (LRU eviction)")
	queueDepth := fs.Int("queue-depth", 64, "max jobs waiting behind the executor; beyond it submissions get 503")
	workers := fs.Int("workers", 0, "bound each run's in-flight replicates on the shared pool (0 = pool width; results never depend on it)")
	role := fs.String("role", "single", "node role: single | coordinator | worker")
	join := fs.String("join", "", "coordinator base URL to join (worker role only)")
	advertise := fs.String("advertise", "", "base URL the coordinator reaches this worker at (worker role; default http://<bound addr>)")
	storeDir := fs.String("store-dir", "", "persist finished artifacts to this directory; they survive restarts and answer without recompute")
	storeMaxBytes := fs.Int64("store-max-bytes", 1<<30, "disk store byte budget; GC evicts oldest-stored entries past it")
	storeMaxAge := fs.Duration("store-max-age", 0, "expire disk store entries older than this (0 = keep until evicted by size)")
	logFormat := fs.String("log-format", "off", "request logging: off | json (one JSON line per request to stderr)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("serve: unexpected argument %q", fs.Arg(0))
	}
	if *cacheBytes <= 0 || *queueDepth <= 0 {
		return nil, fmt.Errorf("serve: -cache-bytes and -queue-depth must be positive")
	}
	if !serve.ValidLogFormat(*logFormat) {
		return nil, fmt.Errorf("serve: unknown -log-format %q (want off | json)", *logFormat)
	}
	if *storeDir == "" {
		// A store knob without a store is a silently ignored intent; reject
		// it so a typo'd deployment fails loudly.
		var orphaned []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "store-max-bytes" || f.Name == "store-max-age" {
				orphaned = append(orphaned, "-"+f.Name)
			}
		})
		if len(orphaned) > 0 {
			return nil, fmt.Errorf("serve: %s need -store-dir", strings.Join(orphaned, ", "))
		}
	} else if *storeMaxBytes <= 0 || *storeMaxAge < 0 {
		return nil, fmt.Errorf("serve: -store-max-bytes must be positive and -store-max-age non-negative")
	}
	scfg := serve.Config{
		CacheBytes:    *cacheBytes,
		QueueDepth:    *queueDepth,
		Workers:       *workers,
		StoreDir:      *storeDir,
		StoreMaxBytes: *storeMaxBytes,
		StoreMaxAge:   *storeMaxAge,
		LogFormat:     *logFormat,
	}
	experimentRoutes := "POST /experiments · GET /jobs/{key} · GET /results/{key} · GET /scenarios · GET /healthz · GET /metrics"
	var extraBanner []string
	if *storeDir != "" {
		extraBanner = append(extraBanner, fmt.Sprintf("artifact store at %s (budget %d bytes)", *storeDir, *storeMaxBytes))
	}
	if *logFormat == "json" {
		extraBanner = append(extraBanner, "request log: json lines on stderr")
	}
	switch *role {
	case "single":
		if *join != "" || *advertise != "" {
			return nil, fmt.Errorf("serve: -join and -advertise need -role=worker")
		}
		srv, err := serve.New(scfg)
		if err != nil {
			return nil, err
		}
		return &serveSetup{
			node:    srv,
			addr:    *addr,
			role:    "single-process server",
			version: srv.Version(),
			banner:  append([]string{experimentRoutes}, extraBanner...),
		}, nil
	case "coordinator":
		if *join != "" || *advertise != "" {
			return nil, fmt.Errorf("serve: -join and -advertise need -role=worker")
		}
		c, err := cluster.NewCoordinator(cluster.Config{Serve: scfg})
		if err != nil {
			return nil, err
		}
		return &serveSetup{
			node:    c,
			addr:    *addr,
			role:    "cluster coordinator",
			version: c.Server().Version(),
			banner: append([]string{
				experimentRoutes,
				"POST /cluster/join · GET/PUT /cluster/artifacts/{key} · GET /cluster/status",
			}, extraBanner...),
		}, nil
	case "worker":
		if *join == "" {
			return nil, fmt.Errorf("serve: -role=worker needs -join=<coordinator URL>")
		}
		wk, err := cluster.NewWorker(cluster.WorkerConfig{Serve: scfg, Coordinator: *join})
		if err != nil {
			return nil, err
		}
		return &serveSetup{
			node:      wk,
			addr:      *addr,
			role:      "cluster worker",
			version:   wk.Server().Version(),
			banner:    append([]string{experimentRoutes, "POST /cluster/run", "joined to " + *join}, extraBanner...),
			announce:  wk.Announce,
			advertise: *advertise,
		}, nil
	default:
		return nil, fmt.Errorf("serve: unknown -role %q (want single | coordinator | worker)", *role)
	}
}
