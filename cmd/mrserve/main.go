// Command mrserve runs the long-lived multi-tenant job service: one
// simulated cluster constructed at startup, then an HTTP JSON API for
// submitting, watching, and canceling MapReduce jobs against it, with
// admission control and deficit-round-robin fair scheduling across
// tenants.
//
// Usage:
//
//	mrserve [flags]
//
// Quickstart:
//
//	mrserve -addr localhost:8080 &
//	curl -s -X POST localhost:8080/jobs \
//	  -d '{"tenant":"alice","spec":{"app":"wordcount","input_mb":16}}'
//	curl -s localhost:8080/jobs/j-000001
//	curl -s localhost:8080/tenants
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mrtext/internal/cluster"
	"mrtext/internal/mrserve"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8080", "HTTP listen address")
		nodes       = flag.Int("nodes", 6, "cluster nodes")
		fast        = flag.Bool("fast", false, "disable disk/network throttling")
		workers     = flag.Int("workers", 2, "jobs running concurrently on the cluster")
		queueDepth  = flag.Int("queue-depth", 16, "max queued jobs before submissions get 429")
		admissionMB = flag.Int64("admission-mb", 1024, "max total estimated input MiB queued before submissions get 429")
		quantumMB   = flag.Int64("quantum-mb", 4, "DRR credit per round per unit tenant weight, in MiB")
		weights     = flag.String("weights", "", "per-tenant DRR weights as tenant=weight[,tenant=weight...] (unlisted tenants weigh 1)")
	)
	flag.Parse()

	tw, err := parseWeights(*weights)
	if err != nil {
		die(err)
	}

	cfg := cluster.LocalSmall()
	cfg.Nodes = *nodes
	if *fast {
		cfg = cluster.Fast(*nodes)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		die(err)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	s, err := mrserve.New(mrserve.Config{
		Cluster:        c,
		QueueDepth:     *queueDepth,
		AdmissionBytes: *admissionMB << 20,
		Quantum:        *quantumMB << 20,
		Workers:        *workers,
		TenantWeights:  tw,
		Log:            logger,
	})
	if err != nil {
		die(err)
	}
	s.Start()

	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Println("mrserve: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		//mrlint:ignore droppederr shutdown is best-effort; the process exits either way
		_ = srv.Shutdown(shCtx)
		s.Close()
	}()

	logger.Printf("mrserve: %d-node cluster up, serving on http://%s", *nodes, *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		die(err)
	}
}

// parseWeights parses "alice=3,bob=1" into the tenant-weight map.
func parseWeights(s string) (map[string]int64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int64)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad -weights entry %q (want tenant=weight)", pair)
		}
		w, err := strconv.ParseInt(val, 10, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight in -weights entry %q", pair)
		}
		out[name] = w
	}
	return out, nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "mrserve:", err)
	os.Exit(1)
}
